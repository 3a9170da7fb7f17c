//! Request, rejection, and reply types of the serving layer.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use smm_sync::sync::{Condvar, Mutex};

use smm_core::{Operand, SmmError};
use smm_kernels::Scalar;

use crate::doorbell::Ring;

/// One GEMM to serve: `C = alpha·A·B + beta·C` over owned column-major
/// buffers (`A` is `m × k` with leading dimension `m`, `B` is `k × n`
/// with leading dimension `k`, `C` is `m × n` with leading dimension
/// `m`). Buffers longer than the dense extent are accepted; only the
/// dense prefix is read and written.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRequest<S: Scalar> {
    /// Rows of `A`/`C`.
    pub m: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Scale on `A·B`.
    pub alpha: S,
    /// Scale on the incoming `C`.
    pub beta: S,
    /// Column-major `A` (at least `m·k` elements).
    pub a: Vec<S>,
    /// Column-major `B` (at least `k·n` elements).
    pub b: Vec<S>,
    /// Column-major `C` (at least `m·n` elements); read when
    /// `beta != 0`, returned with the result.
    pub c: Vec<S>,
    /// Optional deadline, relative to submission. A request whose
    /// deadline passes while it waits in the queue (or in the
    /// coalescing window) is answered [`Rejected::DeadlineExceeded`]
    /// *before* dispatch — expired work is never computed.
    pub deadline: Option<Duration>,
}

impl<S: Scalar> GemmRequest<S> {
    /// A request with `alpha = 1`, `beta = 0`, a zeroed `C`, and no
    /// deadline.
    pub fn new(m: usize, n: usize, k: usize, a: Vec<S>, b: Vec<S>) -> Self {
        GemmRequest {
            m,
            n,
            k,
            alpha: S::ONE,
            beta: S::ZERO,
            a,
            b,
            c: vec![S::ZERO; m.saturating_mul(n)],
            deadline: None,
        }
    }

    /// Attach a deadline (relative to submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Validate buffer extents against the dense column-major layout.
    pub(crate) fn validate(&self) -> Result<(), SmmError> {
        let need = |rows: usize, cols: usize| rows.saturating_mul(cols);
        let checks = [
            (Operand::A, self.a.len(), need(self.m, self.k)),
            (Operand::B, self.b.len(), need(self.k, self.n)),
            (Operand::C, self.c.len(), need(self.m, self.n)),
        ];
        for (operand, len, need) in checks {
            if len < need {
                return Err(SmmError::BufferTooShort { operand, len, need });
            }
        }
        Ok(())
    }
}

/// Why the serving layer did not (or will not) answer a request with a
/// result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded admission queue was full at submission — explicit
    /// backpressure; the caller should retry later or shed load.
    QueueFull {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline passed before dispatch; no work was done.
    DeadlineExceeded,
    /// The server is shutting down and no longer admits requests
    /// (everything admitted before shutdown is still drained and
    /// answered).
    ShuttingDown,
    /// The TCP front end refused the connection because its concurrent
    /// connection limit was reached — per-connection backpressure;
    /// retry on a fresh connection once existing ones close.
    Busy {
        /// The connection limit that was exhausted.
        max_connections: usize,
    },
    /// The request failed validation.
    Invalid(SmmError),
    /// A wire/transport-level failure (malformed frame, oversized
    /// frame, unexpected opcode, or a broken connection).
    Protocol(String),
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            Rejected::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
            Rejected::Busy { max_connections } => {
                write!(f, "connection limit reached (max {max_connections})")
            }
            Rejected::Invalid(e) => write!(f, "invalid request: {e}"),
            Rejected::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Rejected::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// One-shot reply slot shared between a [`Ticket`] and the dispatcher.
/// Fulfilled exactly once: the first write wins, later writes are
/// impossible by construction (every dispatcher path consumes the
/// pending request when it answers).
pub(crate) struct ReplySlot<S: Scalar> {
    state: Mutex<Option<Result<Vec<S>, Rejected>>>,
    cv: Condvar,
    /// The doorbell of the TCP reader that submitted the request, rung
    /// instead of `cv`: that reader polls the ticket and never waits.
    bell: Option<Arc<dyn Ring>>,
}

impl<S: Scalar> ReplySlot<S> {
    pub(crate) fn fulfill(&self, result: Result<Vec<S>, Rejected>) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.is_none(), "reply slot fulfilled twice");
        *st = Some(result);
        match &self.bell {
            Some(bell) => {
                drop(st);
                bell.ring();
            }
            None => self.cv.notify_all(),
        }
    }
}

/// A handle to one submitted request's eventual answer.
///
/// Every admitted request is answered exactly once — with its result,
/// or with a typed [`Rejected`] — including during graceful shutdown,
/// so [`Ticket::wait`] never blocks forever against a live server.
pub struct Ticket<S: Scalar> {
    slot: Arc<ReplySlot<S>>,
}

impl<S: Scalar> Ticket<S> {
    /// Block until the request is answered and take the result (the
    /// returned `Vec` is the request's `C` buffer, updated).
    pub fn wait(self) -> Result<Vec<S>, Rejected> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            if let Some(result) = st.take() {
                return result;
            }
            st = self.slot.cv.wait(st).unwrap();
        }
    }

    /// Non-blocking poll: the answer if it is already in.
    pub fn try_take(&self) -> Option<Result<Vec<S>, Rejected>> {
        self.slot.state.lock().unwrap().take()
    }

    /// Whether the answer is in, without taking it.
    pub(crate) fn is_ready(&self) -> bool {
        self.slot.state.lock().unwrap().is_some()
    }
}

impl<S: Scalar> fmt::Debug for Ticket<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

/// A connected (slot, ticket) pair for one request; `bell`, when set,
/// is rung on fulfillment in place of the ticket's condvar.
pub(crate) fn reply_pair<S: Scalar>(bell: Option<Arc<dyn Ring>>) -> (Arc<ReplySlot<S>>, Ticket<S>) {
    let slot = Arc::new(ReplySlot {
        state: Mutex::new(None),
        cv: Condvar::new(),
        bell,
    });
    (slot.clone(), Ticket { slot })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_checks_dense_extents() {
        let ok = GemmRequest::<f32>::new(3, 4, 5, vec![0.0; 15], vec![0.0; 20]);
        assert!(ok.validate().is_ok());
        let mut short_a = ok.clone();
        short_a.a.truncate(14);
        assert_eq!(
            short_a.validate().unwrap_err(),
            SmmError::BufferTooShort {
                operand: Operand::A,
                len: 14,
                need: 15
            }
        );
        let mut short_c = ok.clone();
        short_c.c.truncate(2);
        assert_eq!(
            short_c.validate().unwrap_err(),
            SmmError::BufferTooShort {
                operand: Operand::C,
                len: 2,
                need: 12
            }
        );
    }

    #[test]
    fn ticket_roundtrip_and_single_fulfillment() {
        let (slot, ticket) = reply_pair::<f32>(None);
        assert!(ticket.try_take().is_none());
        slot.fulfill(Ok(vec![1.0, 2.0]));
        assert_eq!(ticket.wait().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn a_slot_with_a_bell_rings_it_instead_of_the_condvar() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Count(AtomicUsize);
        impl Ring for Count {
            fn ring(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let bell = Arc::new(Count(AtomicUsize::new(0)));
        let (slot, ticket) = reply_pair::<f32>(Some(bell.clone()));
        assert!(!ticket.is_ready());
        slot.fulfill(Ok(vec![3.0]));
        assert_eq!(bell.0.load(Ordering::Relaxed), 1);
        assert!(ticket.is_ready());
        assert_eq!(ticket.try_take().unwrap().unwrap(), vec![3.0]);
    }

    #[test]
    fn rejected_displays_are_descriptive() {
        assert!(Rejected::QueueFull { capacity: 8 }
            .to_string()
            .contains("8"));
        assert!(Rejected::DeadlineExceeded.to_string().contains("deadline"));
        assert!(Rejected::ShuttingDown.to_string().contains("shutting down"));
        assert!(Rejected::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
    }
}
