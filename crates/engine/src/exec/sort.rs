//! ORDER BY: resolve the key names and gather the input's first `limit`
//! rows in key order ([`cv_data::sortkey`], via [`Table::sort_by`]). A
//! `Limit` directly above passes its row count; anything else reads every
//! row.

use cv_common::{CvError, Result};
use cv_data::table::Table;

pub(super) fn sort_table(input: &Table, keys: &[(String, bool)], limit: usize) -> Result<Table> {
    let mut resolved = Vec::with_capacity(keys.len());
    for (name, ascending) in keys {
        let idx = input
            .schema()
            .index_of(name)
            .ok_or_else(|| CvError::exec(format!("sort key `{name}` missing")))?;
        resolved.push((idx, *ascending));
    }
    input.sort_by(&resolved, limit)
}
