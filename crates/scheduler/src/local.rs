//! The local scheduler's spillover rule.
//!
//! "A local scheduler schedules tasks locally unless the node is
//! overloaded (i.e., its local task queue exceeds a predefined threshold),
//! or it cannot satisfy a task's requirements (e.g., lacks a GPU). If a
//! local scheduler decides not to schedule a task locally, it forwards it
//! to the global scheduler." (§4.2.2)

use ray_common::config::SchedulerPolicy;
use ray_common::Resources;

use crate::ledger::ResourceLedger;

/// Outcome of the local decision for one submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalDecision {
    /// Keep the task: enqueue it on this node.
    KeepLocal,
    /// Forward the task to the global scheduler.
    Forward,
}

/// *Why* the local scheduler decided what it decided — recorded into the
/// lifecycle trace so a timeline can distinguish policy-forced spills
/// from genuine overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalDecisionReason {
    /// Bottom-up fast path: feasible and the queue is short.
    LocalFastPath,
    /// The policy routes every task through the global scheduler.
    PolicyForwardsAll,
    /// The node's capacity can never satisfy the demand (e.g. no GPU).
    Infeasible,
    /// The ready queue exceeded the spillover threshold (§4.2.2
    /// "overloaded").
    QueueOverThreshold,
}

impl LocalDecisionReason {
    /// Short trace-detail label.
    pub fn label(&self) -> &'static str {
        match self {
            LocalDecisionReason::LocalFastPath => "local_fast_path",
            LocalDecisionReason::PolicyForwardsAll => "policy_forwards_all",
            LocalDecisionReason::Infeasible => "infeasible",
            LocalDecisionReason::QueueOverThreshold => "queue_over_threshold",
        }
    }
}

/// Applies the bottom-up rule for a task submitted at a node.
///
/// `queue_len` is the current local queue depth (tasks waiting for a
/// worker), `demand` the task's resource requirement.
///
/// # Examples
///
/// ```
/// use ray_common::config::SchedulerPolicy;
/// use ray_common::Resources;
/// use ray_scheduler::{decide_local, LocalDecision, ResourceLedger};
///
/// let ledger = ResourceLedger::new(Resources::cpus(4.0));
/// let d = decide_local(SchedulerPolicy::BottomUp, &ledger, 0, 32, &Resources::cpus(1.0));
/// assert_eq!(d, LocalDecision::KeepLocal);
/// // A GPU task on a CPU-only node must spill no matter what.
/// let d = decide_local(SchedulerPolicy::BottomUp, &ledger, 0, 32, &Resources::gpus(1.0));
/// assert_eq!(d, LocalDecision::Forward);
/// ```
pub fn decide_local(
    policy: SchedulerPolicy,
    ledger: &ResourceLedger,
    queue_len: usize,
    spillover_threshold: usize,
    demand: &Resources,
) -> LocalDecision {
    decide_local_reason(policy, ledger, queue_len, spillover_threshold, demand).0
}

/// [`decide_local`] plus the reason, for trace emission at the decision
/// point.
pub fn decide_local_reason(
    policy: SchedulerPolicy,
    ledger: &ResourceLedger,
    queue_len: usize,
    spillover_threshold: usize,
    demand: &Resources,
) -> (LocalDecision, LocalDecisionReason) {
    match policy {
        // Centralized baseline: every task goes through the global
        // scheduler, like Spark/CIEL (§6 "most existing cluster computing
        // systems use a centralized scheduler architecture").
        // LocalityUnaware is the Fig. 8a placement ablation: it also
        // routes everything through the global scheduler so the *only*
        // difference from Centralized is the missing locality term.
        SchedulerPolicy::Centralized | SchedulerPolicy::LocalityUnaware => {
            (LocalDecision::Forward, LocalDecisionReason::PolicyForwardsAll)
        }
        SchedulerPolicy::BottomUp => {
            if !ledger.feasible(demand) {
                return (LocalDecision::Forward, LocalDecisionReason::Infeasible);
            }
            if queue_len > spillover_threshold {
                return (LocalDecision::Forward, LocalDecisionReason::QueueOverThreshold);
            }
            (LocalDecision::KeepLocal, LocalDecisionReason::LocalFastPath)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ResourceLedger {
        ResourceLedger::new(Resources::new(4.0, 0.0))
    }

    #[test]
    fn under_threshold_stays_local() {
        let l = ledger();
        for q in 0..=8 {
            assert_eq!(
                decide_local(SchedulerPolicy::BottomUp, &l, q, 8, &Resources::cpus(1.0)),
                LocalDecision::KeepLocal
            );
        }
    }

    #[test]
    fn over_threshold_forwards() {
        let l = ledger();
        assert_eq!(
            decide_local(SchedulerPolicy::BottomUp, &l, 9, 8, &Resources::cpus(1.0)),
            LocalDecision::Forward
        );
    }

    #[test]
    fn infeasible_demand_forwards_even_when_idle() {
        let l = ledger();
        assert_eq!(
            decide_local(SchedulerPolicy::BottomUp, &l, 0, 100, &Resources::gpus(1.0)),
            LocalDecision::Forward
        );
    }

    #[test]
    fn busy_but_feasible_stays_local() {
        // Feasibility is about capacity: a fully busy node still keeps
        // feasible tasks (they queue) as long as the queue is short.
        let l = ledger();
        assert!(l.try_acquire(&Resources::cpus(4.0)));
        assert_eq!(
            decide_local(SchedulerPolicy::BottomUp, &l, 2, 8, &Resources::cpus(1.0)),
            LocalDecision::KeepLocal
        );
    }

    #[test]
    fn centralized_always_forwards() {
        let l = ledger();
        assert_eq!(
            decide_local(SchedulerPolicy::Centralized, &l, 0, 1000, &Resources::cpus(1.0)),
            LocalDecision::Forward
        );
    }

    #[test]
    fn reasons_match_decisions() {
        let l = ledger();
        let cpu = Resources::cpus(1.0);
        assert_eq!(
            decide_local_reason(SchedulerPolicy::BottomUp, &l, 0, 8, &cpu),
            (LocalDecision::KeepLocal, LocalDecisionReason::LocalFastPath)
        );
        assert_eq!(
            decide_local_reason(SchedulerPolicy::BottomUp, &l, 9, 8, &cpu),
            (LocalDecision::Forward, LocalDecisionReason::QueueOverThreshold)
        );
        assert_eq!(
            decide_local_reason(SchedulerPolicy::BottomUp, &l, 0, 8, &Resources::gpus(1.0)),
            (LocalDecision::Forward, LocalDecisionReason::Infeasible)
        );
        assert_eq!(
            decide_local_reason(SchedulerPolicy::Centralized, &l, 0, 8, &cpu),
            (LocalDecision::Forward, LocalDecisionReason::PolicyForwardsAll)
        );
        assert_eq!(LocalDecisionReason::Infeasible.label(), "infeasible");
    }

    #[test]
    fn locality_unaware_always_forwards() {
        // The Fig. 8a ablation isolates the global scheduler's placement:
        // every task goes up regardless of local load.
        let l = ledger();
        assert_eq!(
            decide_local(SchedulerPolicy::LocalityUnaware, &l, 0, 1000, &Resources::cpus(1.0)),
            LocalDecision::Forward
        );
    }
}
