//! Which sequence encoder backs a [`crate::seq::SequenceRegressor`]:
//! [`EncoderKind`] names it, and [`AnyRecurrent`] holds any of the three
//! recurrent stacks as one value.

use crate::gru::Gru;
use crate::lstm::Lstm;
use crate::rnn::Rnn;
use fastft_tabular::persist::{Persist, PersistResult, Reader, Writer};
use fastft_tabular::rngx::StdRng;

/// Which sequence encoder backs the regressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// Stacked LSTM (paper default: 2 layers).
    Lstm {
        /// Number of stacked layers.
        layers: usize,
    },
    /// Stacked vanilla RNN (FASTFTᴿ).
    Rnn {
        /// Number of stacked layers.
        layers: usize,
    },
    /// Stacked GRU (extended-ablation encoder; not in the paper's trio).
    Gru {
        /// Number of stacked layers.
        layers: usize,
    },
    /// Transformer encoder blocks (FASTFTᵀ).
    Transformer {
        /// Attention heads per block.
        heads: usize,
        /// Number of blocks.
        blocks: usize,
    },
}

impl EncoderKind {
    /// Label used in the Fig. 8 harness.
    pub fn label(self) -> &'static str {
        match self {
            EncoderKind::Lstm { .. } => "LSTM",
            EncoderKind::Rnn { .. } => "RNN",
            EncoderKind::Gru { .. } => "GRU",
            EncoderKind::Transformer { .. } => "Transformer",
        }
    }

    /// Stacked depth: the recurrent layer count, or the Transformer block
    /// count (at least 1). The Novelty Estimator's LSTM target takes this
    /// many layers.
    pub fn depth(self) -> usize {
        match self {
            EncoderKind::Lstm { layers }
            | EncoderKind::Rnn { layers }
            | EncoderKind::Gru { layers } => layers,
            EncoderKind::Transformer { blocks, .. } => blocks.max(1),
        }
    }

    /// Check that this encoder can be built at model width `width`: a
    /// recurrent stack needs at least one layer, and a Transformer needs at
    /// least one head, with the head count dividing the width.
    pub fn validate(self, width: usize) -> Result<(), String> {
        let buildable = match self {
            EncoderKind::Transformer { heads, .. } => heads >= 1 && width.is_multiple_of(heads),
            _ => self.depth() >= 1,
        };
        if buildable {
            return Ok(());
        }
        Err(format!(
            "{self:?} cannot be built at model width {width}: a recurrent stack needs >= 1 \
             layer, a Transformer >= 1 head dividing the width"
        ))
    }
}

impl Persist for EncoderKind {
    // Fixed-width layout (tag + two operand slots) so every variant
    // occupies the same shape on disk.
    fn persist(&self, w: &mut Writer) {
        let (tag, a, b) = match *self {
            EncoderKind::Lstm { layers } => (0u8, layers, 0),
            EncoderKind::Rnn { layers } => (1, layers, 0),
            EncoderKind::Gru { layers } => (2, layers, 0),
            EncoderKind::Transformer { heads, blocks } => (3, heads, blocks),
        };
        w.u8(tag);
        w.usize(a);
        w.usize(b);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        let (tag, a, b) = (r.u8()?, r.usize()?, r.usize()?);
        Ok(match tag {
            0 => EncoderKind::Lstm { layers: a },
            1 => EncoderKind::Rnn { layers: a },
            2 => EncoderKind::Gru { layers: a },
            3 => EncoderKind::Transformer { heads: a, blocks: b },
            t => return Err(format!("unknown encoder tag {t}")),
        })
    }
}

/// Any of the three recurrent stacks: the one recurrent arm of the
/// regressor's encoder. [`with_stack!`] reaches the stack inside.
#[derive(Debug, Clone)]
pub(crate) enum AnyRecurrent {
    Lstm(Lstm),
    Rnn(Rnn),
    Gru(Gru),
}

/// `with_stack!(any, s => expr)` evaluates `expr` with `s` bound to the
/// stack inside an [`AnyRecurrent`], whichever cell it runs (like
/// `either::for_both!`).
macro_rules! with_stack {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            AnyRecurrent::Lstm($s) => $body,
            AnyRecurrent::Rnn($s) => $body,
            AnyRecurrent::Gru($s) => $body,
        }
    };
}
pub(crate) use with_stack;

impl AnyRecurrent {
    /// Build the recurrent stack `kind` names (`in_dim → hidden`).
    ///
    /// # Panics
    /// Panics for [`EncoderKind::Transformer`].
    pub(crate) fn new(kind: EncoderKind, in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        match kind {
            EncoderKind::Lstm { layers } => Self::Lstm(Lstm::new(in_dim, hidden, layers, rng)),
            EncoderKind::Rnn { layers } => Self::Rnn(Rnn::new(in_dim, hidden, layers, rng)),
            EncoderKind::Gru { layers } => Self::Gru(Gru::new(in_dim, hidden, layers, rng)),
            EncoderKind::Transformer { .. } => panic!("a Transformer is not a recurrent stack"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_counts_layers_or_blocks() {
        assert_eq!(EncoderKind::Gru { layers: 3 }.depth(), 3);
        assert_eq!(EncoderKind::Transformer { heads: 2, blocks: 2 }.depth(), 2);
        assert_eq!(EncoderKind::Transformer { heads: 2, blocks: 0 }.depth(), 1);
    }
}
