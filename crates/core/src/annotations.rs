//! Query annotation files (paper Fig. 5: "generate query annotations file
//! ... could be used for quickly debugging any job. For instance, in case
//! of a customer incident, we can reproduce the compute reuse behavior by
//! compiling a job with the annotations file.").

use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId};
use cv_common::json::{json, Json};
use cv_common::{CvError, HashMap, HashSet, Result};
use cv_engine::optimizer::{ReuseContext, ViewMeta};

/// The serialized reuse decision for one job, sufficient to replay its
/// compilation offline.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnnotations {
    pub job: JobId,
    pub vc: VcId,
    pub runtime_version: String,
    /// Strict signatures with a live view at compile time, with the view's
    /// observed statistics.
    pub available: Vec<AnnotatedView>,
    /// Strict signatures selected for materialization.
    pub to_build: Vec<Sig128>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnotatedView {
    pub sig: Sig128,
    pub rows: u64,
    pub bytes: u64,
}

impl QueryAnnotations {
    pub fn from_context(
        job: JobId,
        vc: VcId,
        runtime_version: &str,
        ctx: &ReuseContext,
    ) -> QueryAnnotations {
        let mut available: Vec<AnnotatedView> = ctx
            .available
            .iter()
            .map(|(&sig, meta)| AnnotatedView { sig, rows: meta.rows, bytes: meta.bytes })
            .collect();
        available.sort_by_key(|v| v.sig);
        let mut to_build: Vec<Sig128> = ctx.to_build.iter().copied().collect();
        to_build.sort();
        QueryAnnotations {
            job,
            vc,
            runtime_version: runtime_version.to_string(),
            available,
            to_build,
        }
    }

    /// Rebuild the optimizer input — the debugging replay path.
    pub fn to_context(&self) -> ReuseContext {
        let available: HashMap<Sig128, ViewMeta> =
            self.available.iter().map(|v| (v.sig, ViewMeta::hot(v.rows, v.bytes))).collect();
        let to_build: HashSet<Sig128> = self.to_build.iter().copied().collect();
        // Semantic grants carry live plan pointers and are not serialized
        // into the replay log; replays see exact-signature reuse only.
        ReuseContext { available, to_build, semantic: HashMap::default() }
    }

    pub fn to_json(&self) -> String {
        let available: Vec<Json> = self
            .available
            .iter()
            .map(|v| json!({ "sig": v.sig.to_string(), "rows": v.rows, "bytes": v.bytes }))
            .collect();
        let to_build: Vec<Json> = self.to_build.iter().map(|s| Json::from(s.to_string())).collect();
        json!({
            "job": self.job.0,
            "vc": self.vc.0,
            "runtime_version": self.runtime_version.as_str(),
            "available": available,
            "to_build": to_build,
        })
        .to_string_pretty()
    }

    pub fn from_json(json: &str) -> Result<QueryAnnotations> {
        let v = Json::parse(json)?;
        let field =
            |k: &str| v.get(k).ok_or_else(|| CvError::parse(format!("annotations: missing `{k}`")));
        let sig_of = |j: &Json| -> Result<Sig128> {
            let s = j
                .as_str()
                .or_else(|| j.get("sig").and_then(Json::as_str))
                .ok_or_else(|| CvError::parse("annotations: signature must be a hex string"))?;
            u128::from_str_radix(s, 16)
                .map(Sig128)
                .map_err(|_| CvError::parse(format!("annotations: bad signature `{s}`")))
        };
        let num = |j: &Json, k: &str| -> Result<u64> {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| CvError::parse(format!("annotations: bad `{k}`")))
        };
        let arr = |j: &Json, k: &str| -> Result<Vec<Json>> {
            Ok(j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| CvError::parse(format!("annotations: `{k}` must be an array")))?
                .to_vec())
        };
        let mut available = Vec::new();
        for item in arr(&v, "available")? {
            available.push(AnnotatedView {
                sig: sig_of(&item)?,
                rows: num(&item, "rows")?,
                bytes: num(&item, "bytes")?,
            });
        }
        let mut to_build = Vec::new();
        for item in arr(&v, "to_build")? {
            to_build.push(sig_of(&item)?);
        }
        Ok(QueryAnnotations {
            job: JobId(num(&v, "job")?),
            vc: VcId(field("vc")?.as_u64().ok_or_else(|| CvError::parse("annotations: bad `vc`"))?),
            runtime_version: field("runtime_version")?
                .as_str()
                .ok_or_else(|| CvError::parse("annotations: bad `runtime_version`"))?
                .to_string(),
            available,
            to_build,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ReuseContext {
        let mut c = ReuseContext::empty();
        c.available.insert(Sig128(7), ViewMeta::hot(10, 100));
        c.available.insert(Sig128(3), ViewMeta::hot(5, 50));
        c.to_build.insert(Sig128(9));
        c
    }

    #[test]
    fn roundtrip_through_json() {
        let ann = QueryAnnotations::from_context(JobId(1), VcId(2), "scope-v1", &ctx());
        let json = ann.to_json();
        let back = QueryAnnotations::from_json(&json).unwrap();
        assert_eq!(ann, back);
        let rebuilt = back.to_context();
        assert_eq!(rebuilt.available.len(), 2);
        assert_eq!(rebuilt.available[&Sig128(7)].rows, 10);
        assert!(rebuilt.to_build.contains(&Sig128(9)));
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = QueryAnnotations::from_context(JobId(1), VcId(2), "scope-v1", &ctx());
        let b = QueryAnnotations::from_context(JobId(1), VcId(2), "scope-v1", &ctx());
        assert_eq!(a.to_json(), b.to_json());
        // Sorted regardless of HashMap iteration order.
        assert!(a.available.windows(2).all(|w| w[0].sig <= w[1].sig));
    }

    #[test]
    fn bad_json_rejected() {
        assert!(QueryAnnotations::from_json("{not json").is_err());
    }
}
