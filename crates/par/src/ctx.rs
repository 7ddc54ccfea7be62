//! The one context argument of the adaptation-round entry points.

use crate::pool::Pool;
use vlc_telemetry::Registry;
use vlc_trace::Span;

static NOOP_METRICS: Registry = Registry::noop();
static NOOP_SPAN: Span = Span::noop();

/// Where an operation records and how it fans out: the metrics registry,
/// the parent span its own span nests under, and the worker pool.
///
/// `pool: None` means "size a pool from `DENSEVLC_JOBS` at call time and
/// attach `metrics` to it" — the behaviour of every entry point that is not
/// handed a pool. A `Some` pool is used as is, so a long-running caller can
/// hoist one pool across every call (watch `par.pool.created` stay put).
/// Building a `Ctx` never allocates: it is three borrowed references.
///
/// ```
/// use vlc_par::{Ctx, Jobs, Pool};
/// use vlc_telemetry::Registry;
/// use vlc_trace::Span;
///
/// let metrics = Registry::new();
/// let root = Span::noop();
/// let pool = Pool::new(Jobs::serial()).with_telemetry(&metrics);
/// let ctx = Ctx::new(&metrics, &root).with_pool(&pool);
/// let squares = ctx.on_pool(|p| p.map_indexed(4, |i| i * i));
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// assert_eq!(metrics.snapshot().counter("par.map_calls"), Some(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Registry the operation's counters, gauges and histograms go to.
    pub metrics: &'a Registry,
    /// Parent of the operation's span.
    pub span: &'a Span,
    /// Worker pool; `None` builds one from the environment per call.
    pub pool: Option<&'a Pool>,
}

impl Ctx<'static> {
    /// Records nothing, traces nothing, and sizes its pool from the
    /// environment: the context of the plain, uninstrumented call.
    pub fn noop() -> Self {
        Ctx {
            metrics: &NOOP_METRICS,
            span: &NOOP_SPAN,
            pool: None,
        }
    }
}

impl<'a> Ctx<'a> {
    /// A context recording into `metrics` under `span`, pool from the
    /// environment.
    pub fn new(metrics: &'a Registry, span: &'a Span) -> Self {
        Ctx {
            metrics,
            span,
            pool: None,
        }
    }

    /// The same context on a caller-supplied pool.
    pub fn with_pool(self, pool: &'a Pool) -> Self {
        Ctx {
            pool: Some(pool),
            ..self
        }
    }

    /// Runs `f` on the context's pool, or on a pool sized from
    /// `DENSEVLC_JOBS` (read now) with `metrics` attached when there is
    /// none.
    pub fn on_pool<R>(&self, f: impl FnOnce(&Pool) -> R) -> R {
        match self.pool {
            Some(pool) => f(pool),
            None => f(&Pool::from_env().with_telemetry(self.metrics)),
        }
    }
}
