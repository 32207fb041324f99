//! Virtual time. Real clocks would make executions nondeterministic
//! (and timed waits would actually sleep), so under the checker time is
//! a `u64` nanosecond counter in the model state that only advances
//! when the scheduler explores a timeout branch — a `wait_timeout`
//! whose timeout fires jumps the clock to its deadline. Reading the
//! clock is not a schedule point.

use crate::rt;
use std::time::Duration;

/// Virtual-time mirror of `std::time::Instant`, supporting exactly the
/// operations the serving stack uses (`now`, `+ Duration`, ordering,
/// difference, `elapsed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(u64);

impl Instant {
    /// The current virtual time of the running execution.
    pub fn now() -> Self {
        Instant(rt::now_ns())
    }

    /// Virtual time elapsed since `self`.
    pub fn elapsed(&self) -> Duration {
        Instant::now() - *self
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl std::ops::Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_sub(rhs.as_nanos() as u64))
    }
}

impl std::ops::Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}
