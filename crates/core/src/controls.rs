//! Multi-level enable/disable controls (paper §4 "multi-level control").
//!
//! Production placed "several levels of control": per-job toggles for
//! developers, per-VC toggles for onboarding/opt-out, a cluster-level
//! switch, and the insights-service switch as the über gate for incidents.
//! Deployment started **opt-in** and later moved to **opt-out** by business
//! tier (§4 "opt-in vs opt-out").

use cv_common::ids::{JobId, VcId};
use cv_common::{HashMap, HashSet};

/// How VCs are onboarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeploymentMode {
    /// VCs are disabled unless explicitly enabled (early deployment).
    OptIn,
    /// VCs are enabled unless explicitly disabled (after hardening).
    OptOut,
}

/// The control hierarchy. All four levels must allow a job for CloudViews
/// to apply to it.
#[derive(Clone, Debug)]
pub struct Controls {
    /// Über gate at the insights service (incident kill switch).
    pub service_enabled: bool,
    /// Whole-cluster switch.
    pub cluster_enabled: bool,
    pub mode: DeploymentMode,
    /// Explicit per-VC decisions (opt-ins under `OptIn`, opt-outs under
    /// `OptOut`).
    pub vc_overrides: HashMap<VcId, bool>,
    /// Individual jobs whose developers toggled CloudViews off.
    pub disabled_jobs: HashSet<JobId>,
}

impl Default for Controls {
    fn default() -> Self {
        Controls {
            service_enabled: true,
            cluster_enabled: true,
            mode: DeploymentMode::OptIn,
            vc_overrides: HashMap::default(),
            disabled_jobs: HashSet::default(),
        }
    }
}

impl Controls {
    /// Everything on, every VC enabled — the post-hardening steady state.
    pub fn opt_out() -> Controls {
        Controls { mode: DeploymentMode::OptOut, ..Default::default() }
    }

    pub fn enable_vc(&mut self, vc: VcId) {
        self.vc_overrides.insert(vc, true);
    }

    pub fn disable_vc(&mut self, vc: VcId) {
        self.vc_overrides.insert(vc, false);
    }

    pub fn disable_job(&mut self, job: JobId) {
        self.disabled_jobs.insert(job);
    }

    pub fn vc_enabled(&self, vc: VcId) -> bool {
        match self.vc_overrides.get(&vc) {
            Some(&explicit) => explicit,
            None => self.mode == DeploymentMode::OptOut,
        }
    }

    /// The full gate: service ∧ cluster ∧ VC ∧ job.
    pub fn is_enabled(&self, vc: VcId, job: JobId) -> bool {
        self.service_enabled
            && self.cluster_enabled
            && self.vc_enabled(vc)
            && !self.disabled_jobs.contains(&job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_in_requires_explicit_enable() {
        let mut c = Controls::default();
        assert!(!c.is_enabled(VcId(1), JobId(1)));
        c.enable_vc(VcId(1));
        assert!(c.is_enabled(VcId(1), JobId(1)));
        assert!(!c.is_enabled(VcId(2), JobId(1)));
    }

    #[test]
    fn opt_out_enables_by_default() {
        let mut c = Controls::opt_out();
        assert!(c.is_enabled(VcId(1), JobId(1)));
        c.disable_vc(VcId(1));
        assert!(!c.is_enabled(VcId(1), JobId(1)));
        assert!(c.is_enabled(VcId(2), JobId(1)));
    }

    #[test]
    fn job_level_toggle() {
        let mut c = Controls::opt_out();
        c.disable_job(JobId(9));
        assert!(!c.is_enabled(VcId(0), JobId(9)));
        assert!(c.is_enabled(VcId(0), JobId(10)));
    }

    #[test]
    fn service_gate_overrides_everything() {
        let mut c = Controls::opt_out();
        c.service_enabled = false;
        assert!(!c.is_enabled(VcId(0), JobId(0)));
        c.service_enabled = true;
        c.cluster_enabled = false;
        assert!(!c.is_enabled(VcId(0), JobId(0)));
    }
}
