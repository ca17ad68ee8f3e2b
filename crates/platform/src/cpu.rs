//! Processor core identifiers.

use serde::{Deserialize, Serialize};

/// Identifier of one of the four physical cores (0–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);
