//! Search-based program repair for C-to-HLS transpilation — the core of the
//! HeteroGen reproduction (paper §5).
//!
//! The crate provides:
//!
//! * [`classify`] — keyword classification of HLS error messages into the
//!   six categories of the paper's forum study;
//! * [`localize`] — per-category repair localization from diagnostics to
//!   concretized [`templates::RepairEdit`]s (Table 2);
//! * [`deps`] — the dependence/precedence structure among edits (Fig. 7c);
//! * [`diff`] — differential testing of candidates against the original;
//! * [`script`] — the typed EditScript IR ([`EditKind`], [`EditScript`])
//!   every layer above exchanges repair scripts in;
//! * [`mine`] — fix-pattern mining over stored scripts into ranked
//!   [`FixPattern`]s fed back as a high-priority candidate tier;
//! * [`search`] — the evolutionary repair loop with the style-checker and
//!   dependence ablations of Figure 9;
//! * the heavy transforms: recursion-to-stack ([`xform_stack`]), pointer
//!   removal ([`xform_pointer`]) and struct repairs ([`xform_struct`]).

pub mod classify;
pub mod deps;
pub mod diff;
pub mod localize;
pub mod mine;
pub mod script;
pub mod search;
pub mod templates;
pub mod xform_pointer;
pub mod xform_stack;
pub mod xform_struct;

pub use classify::classify_message;
pub use diff::{DiffReport, DifferentialTester, MemoStats};
pub use localize::candidate_edits;
pub use script::{EditKind, EditScript, FixPattern, PatternEdit, ScriptEdit};
pub use search::{
    performance_edits, repair, RepairOutcome, SearchConfig, SearchConfigBuilder, SearchStats,
    SearchStop,
};
pub use templates::{RepairEdit, ResizeTarget};
