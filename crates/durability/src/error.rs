//! Error type shared by the WAL, snapshot, and recovery paths.

use crate::kill::KillSite;
use mpcbf_core::{CodecError, FilterError};

/// Anything that can go wrong while logging, snapshotting, or
/// recovering a durable filter.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the durability layer was doing.
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// An injected crash fired at this site (drills only; a production
    /// switch is never armed).
    Killed(KillSite),
    /// A snapshot image failed to decode.
    Image(CodecError),
    /// The newest usable snapshot is an intact image of another codec
    /// format version. Its words were placed by another planner, and the
    /// WAL below it has been truncated, so recovery stops rather than
    /// skip it and come up without the keys it holds.
    IncompatibleSnapshot {
        /// Sequence number of the refused snapshot.
        seq: u64,
        /// Format version the snapshot was written in.
        version: u8,
    },
    /// The wrapped filter refused the operation (e.g. word overflow).
    /// The op is already logged; replay re-refuses it deterministically.
    Filter(FilterError),
}

impl DurableError {
    pub(crate) fn io(context: &'static str, source: std::io::Error) -> Self {
        DurableError::Io { context, source }
    }

    /// True when the error is an injected crash.
    pub fn is_kill(&self) -> bool {
        matches!(self, DurableError::Killed(_))
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { context, source } => write!(f, "{context}: {source}"),
            DurableError::Killed(site) => write!(f, "injected crash at {site}"),
            DurableError::Image(e) => write!(f, "snapshot image: {e}"),
            DurableError::IncompatibleSnapshot { seq, version } => write!(
                f,
                "snapshot {seq} is in unsupported format version {version}; \
                 rebuild the filter from its keys"
            ),
            DurableError::Filter(e) => write!(f, "filter refused: {e:?}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Image(e)
    }
}

impl From<FilterError> for DurableError {
    fn from(e: FilterError) -> Self {
        DurableError::Filter(e)
    }
}
