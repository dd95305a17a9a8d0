//! Job descriptions, typed errors, completion handles and test faults.
//!
//! A job is `(pattern, radius, coefficients, grid, sweeps)`. Validation
//! happens at *construction* — a [`JobRequest`] can only exist with a
//! coefficient table of the right arity and a grid whose halo covers the
//! radius — so the server's admission stage only has to police capacity,
//! and a malformed submission gets its typed error synchronously without
//! ever touching the pipeline.

use hstencil_core::{Grid2d, GridError, Pattern, StencilSpec};
use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};

/// Server-assigned job identity (monotonic per server).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Everything that can go wrong between submission and completion, as a
/// value the submitter can match on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The admission queue was at capacity; the submission was rejected
    /// *immediately* (the submit call never blocks on a full queue).
    QueueFull {
        /// Configured admission-queue bound (`HSTENCIL_SERVE_QUEUE`).
        capacity: usize,
    },
    /// The server no longer accepts jobs (shutdown started before this
    /// submission; already-admitted jobs still drain to completion).
    ShuttingDown,
    /// Coefficient table arity does not match `(2·radius+1)²`.
    InvalidCoeffs {
        /// Required table length for the requested radius.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The input grid cannot host the stencil (halo narrower than the
    /// radius, degenerate interior, …).
    InvalidGrid(GridError),
    /// The kernel panicked while executing this job. The panic was
    /// contained (pool and pipeline stay live); the payload's text is
    /// preserved for diagnostics.
    Panicked(String),
    /// The server went away without completing the job (stage thread
    /// lost — should be unreachable in normal operation).
    Disconnected,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            JobError::ShuttingDown => write!(f, "server is shutting down"),
            JobError::InvalidCoeffs { expected, got } => {
                write!(
                    f,
                    "coefficient table has {got} entries, radius needs {expected}"
                )
            }
            JobError::InvalidGrid(e) => write!(f, "grid rejected: {e:?}"),
            JobError::Panicked(msg) => write!(f, "job kernel panicked: {msg}"),
            JobError::Disconnected => write!(f, "server dropped the job without completing it"),
        }
    }
}

impl std::error::Error for JobError {}

/// A validated job, ready to submit.
pub struct JobRequest {
    pub(crate) spec: StencilSpec,
    pub(crate) grid: Grid2d,
    pub(crate) sweeps: usize,
    pub(crate) fault: Option<Fault>,
}

impl JobRequest {
    /// Builds a job from raw parts, validating the coefficient table
    /// arity and the grid/stencil compatibility up front.
    pub fn new(
        pattern: Pattern,
        radius: usize,
        coeffs: Vec<f64>,
        grid: Grid2d,
        sweeps: usize,
    ) -> Result<JobRequest, JobError> {
        let side = 2 * radius + 1;
        let expected = side * side;
        if coeffs.len() != expected {
            return Err(JobError::InvalidCoeffs {
                expected,
                got: coeffs.len(),
            });
        }
        let name = match pattern {
            Pattern::Star => "serve/star",
            Pattern::Box => "serve/box",
        };
        let spec = StencilSpec::new_2d(name, pattern, radius, coeffs);
        JobRequest::from_spec(spec, grid, sweeps)
    }

    /// Builds a job from an existing 2-D spec (e.g. a `hstencil_core::presets` entry).
    pub fn from_spec(
        spec: StencilSpec,
        grid: Grid2d,
        sweeps: usize,
    ) -> Result<JobRequest, JobError> {
        assert_eq!(spec.dims(), 2, "the serve pipeline executes 2-D jobs");
        grid.check_stencil(spec.radius(), &grid)
            .map_err(JobError::InvalidGrid)?;
        Ok(JobRequest {
            spec,
            grid,
            sweeps: sweeps.max(1),
            fault: None,
        })
    }

    /// Attaches a test fault (see [`Fault`]).
    pub fn with_fault(mut self, fault: Fault) -> JobRequest {
        self.fault = Some(fault);
        self
    }

    /// The job's stencil spec.
    pub fn spec(&self) -> &StencilSpec {
        &self.spec
    }

    /// Number of time steps the job requests (≥ 1).
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }
}

/// First-class fault injection for the failure-path tests (the same
/// philosophy as the conformance registry's `with_off_by_one`): faults
/// run *inside* the executor stage, on the real ThreadPool, so the tests
/// exercise the production panic-containment path rather than a mock.
#[derive(Clone)]
pub enum Fault {
    /// Panic on the highest lane of a pool job as wide as the server's
    /// configured lanes, whatever lane count the job itself runs on —
    /// with ≥ 2 lanes this drives the pool's `LANE_PANICKED`
    /// worker-unwind path end to end.
    Panic,
    /// Park the executor inside this job until [`Hold::release`] — lets
    /// a test wedge the pipeline deterministically to observe
    /// backpressure and queue-full rejection.
    Hold(Arc<Hold>),
}

/// Two-way handshake used by [`Fault::Hold`].
pub struct Hold {
    state: Mutex<(bool, bool)>, // (entered, released)
    cv: Condvar,
}

impl Hold {
    /// Creates an un-entered, un-released hold.
    pub fn new() -> Arc<Hold> {
        Arc::new(Hold {
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
        })
    }

    /// Blocks until the executor has entered the held job — after this
    /// returns, the executor stage is provably wedged on the hold.
    pub fn wait_entered(&self) {
        let mut st = self.state.lock().expect("hold lock");
        while !st.0 {
            st = self.cv.wait(st).expect("hold wait");
        }
    }

    /// Releases the executor; the held job then completes normally.
    pub fn release(&self) {
        let mut st = self.state.lock().expect("hold lock");
        st.1 = true;
        self.cv.notify_all();
    }

    /// Executor side: announce entry, then park until released.
    pub(crate) fn enter_and_wait(&self) {
        let mut st = self.state.lock().expect("hold lock");
        st.0 = true;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).expect("hold wait");
        }
    }
}

/// The submitter's side of a job: blocks on [`JobHandle::wait`] for the
/// typed result. Dropping the handle abandons the result (the job still
/// runs and is counted; its output grid is discarded).
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) rx: Receiver<Result<Grid2d, JobError>>,
}

impl JobHandle {
    /// The server-assigned id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Waits for the job's result.
    pub fn wait(self) -> Result<Grid2d, JobError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(JobError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_core::{presets, Grid2dT};

    #[test]
    fn construction_validates_coeff_arity_and_grid() {
        let grid = Grid2dT::<f64>::zeros(8, 8, 1);
        let err = JobRequest::new(Pattern::Star, 1, vec![0.25; 8], grid.clone(), 1)
            .err()
            .expect("short table must be rejected");
        assert_eq!(
            err,
            JobError::InvalidCoeffs {
                expected: 9,
                got: 8
            }
        );

        // Halo 1 cannot host radius 2.
        let err = JobRequest::new(Pattern::Box, 2, vec![0.04; 25], grid.clone(), 1)
            .err()
            .expect("halo < radius must be rejected");
        assert_eq!(
            err,
            JobError::InvalidGrid(GridError::HaloTooSmall { halo: 1, radius: 2 })
        );

        let ok = JobRequest::new(Pattern::Star, 1, vec![1.0 / 9.0; 9], grid, 0)
            .expect("well-formed job");
        assert_eq!(ok.sweeps(), 1, "sweeps clamp to at least one");

        let preset = JobRequest::from_spec(presets::star2d5p(), Grid2dT::<f64>::zeros(6, 6, 1), 3)
            .expect("preset job");
        assert_eq!(preset.spec().name(), "star2d5p");
    }

    #[test]
    fn job_errors_render_for_diagnostics() {
        let shown = format!("{}", JobError::QueueFull { capacity: 4 });
        assert!(shown.contains("capacity 4"), "{shown}");
        let shown = format!("{}", JobError::Panicked("boom".into()));
        assert!(shown.contains("boom"), "{shown}");
    }
}
