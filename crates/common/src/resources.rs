//! Resource demand and capacity vectors.
//!
//! Ray lets developers "specify resource requirements so that the Ray
//! scheduler can efficiently manage resources" (paper §3.1), e.g.
//! `@ray.remote(num_gpus=2)`. A [`Resources`] value is either a node's
//! capacity or a task's demand; the scheduler subtracts demands from
//! capacities as tasks are dispatched and adds them back on completion.
//!
//! Quantities are fixed-point milli-units internally (1 CPU = 1000 mCPU) so
//! that arithmetic is exact and `Eq`/`Ord` are well-defined; the public API
//! speaks `f64` like Ray's.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Fixed-point scale: 1.0 resource unit = 1000 milli-units.
const SCALE: f64 = 1000.0;

fn to_milli(x: f64) -> i64 {
    debug_assert!(x >= 0.0, "resource quantities must be non-negative");
    (x * SCALE).round() as i64
}

fn from_milli(m: i64) -> f64 {
    m as f64 / SCALE
}

/// A vector of resource quantities: CPUs, GPUs, and named custom resources.
///
/// # Examples
///
/// ```
/// use ray_common::Resources;
/// let capacity = Resources::new(4.0, 1.0);
/// let demand = Resources::cpus(1.0);
/// assert!(capacity.fits(&demand));
/// let left = capacity.checked_sub(&demand).unwrap();
/// assert_eq!(left.cpu(), 3.0);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Resources {
    cpu_milli: i64,
    gpu_milli: i64,
    custom_milli: BTreeMap<String, i64>,
}

impl Resources {
    /// An empty resource vector (zero of everything).
    pub fn none() -> Self {
        Resources::default()
    }

    /// A vector with the given CPU and GPU quantities.
    pub fn new(cpus: f64, gpus: f64) -> Self {
        Resources {
            cpu_milli: to_milli(cpus),
            gpu_milli: to_milli(gpus),
            custom_milli: BTreeMap::new(),
        }
    }

    /// A CPU-only vector.
    pub fn cpus(cpus: f64) -> Self {
        Resources::new(cpus, 0.0)
    }

    /// A GPU-only vector.
    pub fn gpus(gpus: f64) -> Self {
        Resources::new(0.0, gpus)
    }

    /// Adds a named custom resource (e.g. `"tpu"`, `"memory_gb"`); builder-style.
    pub fn with_custom(mut self, name: &str, amount: f64) -> Self {
        self.set_custom(name, amount);
        self
    }

    /// Sets a named custom resource quantity.
    pub fn set_custom(&mut self, name: &str, amount: f64) {
        let m = to_milli(amount);
        if m == 0 {
            self.custom_milli.remove(name);
        } else {
            self.custom_milli.insert(name.to_string(), m);
        }
    }

    /// CPU quantity.
    pub fn cpu(&self) -> f64 {
        from_milli(self.cpu_milli)
    }

    /// GPU quantity.
    pub fn gpu(&self) -> f64 {
        from_milli(self.gpu_milli)
    }

    /// Quantity of a named custom resource (zero if absent).
    pub fn custom(&self, name: &str) -> f64 {
        from_milli(self.custom_milli.get(name).copied().unwrap_or(0))
    }

    /// Iterates over the named custom resources.
    pub fn custom_iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.custom_milli.iter().map(|(k, &v)| (k.as_str(), from_milli(v)))
    }

    /// Whether every quantity is zero.
    pub fn is_empty(&self) -> bool {
        self.cpu_milli == 0 && self.gpu_milli == 0 && self.custom_milli.is_empty()
    }

    /// Whether `demand` fits within this capacity, component-wise.
    pub fn fits(&self, demand: &Resources) -> bool {
        if demand.cpu_milli > self.cpu_milli || demand.gpu_milli > self.gpu_milli {
            return false;
        }
        demand
            .custom_milli
            .iter()
            .all(|(k, &need)| self.custom_milli.get(k).copied().unwrap_or(0) >= need)
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Resources) -> Resources {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place component-wise sum. A key this vector already holds is
    /// added to where it is; only a new one is cloned in.
    pub fn add_assign(&mut self, other: &Resources) {
        self.cpu_milli += other.cpu_milli;
        self.gpu_milli += other.gpu_milli;
        for (k, &v) in &other.custom_milli {
            match self.custom_milli.get_mut(k) {
                Some(held) => *held += v,
                None => {
                    self.custom_milli.insert(k.clone(), v);
                }
            }
        }
        self.custom_milli.retain(|_, v| *v != 0);
    }

    /// Subtracts `other` in place if it fits; otherwise leaves this
    /// vector as it is and returns `false`.
    pub fn try_sub_assign(&mut self, other: &Resources) -> bool {
        if !self.fits(other) {
            return false;
        }
        self.cpu_milli -= other.cpu_milli;
        self.gpu_milli -= other.gpu_milli;
        for (k, &v) in &other.custom_milli {
            if let Some(held) = self.custom_milli.get_mut(k) {
                *held -= v;
            }
        }
        self.custom_milli.retain(|_, v| *v != 0);
        true
    }

    /// Component-wise difference, or `None` if `other` does not fit.
    pub fn checked_sub(&self, other: &Resources) -> Option<Resources> {
        let mut out = self.clone();
        out.try_sub_assign(other).then_some(out)
    }

    /// Scalar "weight" used by load metrics: total milli-units across kinds.
    pub fn weight(&self) -> i64 {
        self.cpu_milli + self.gpu_milli + self.custom_milli.values().sum::<i64>()
    }
}

impl fmt::Debug for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{cpu:{}", self.cpu())?;
        if self.gpu_milli != 0 {
            write!(f, ", gpu:{}", self.gpu())?;
        }
        for (k, v) in self.custom_iter() {
            write!(f, ", {k}:{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_basic() {
        let cap = Resources::new(4.0, 2.0);
        assert!(cap.fits(&Resources::cpus(4.0)));
        assert!(!cap.fits(&Resources::cpus(4.5)));
        assert!(cap.fits(&Resources::new(1.0, 2.0)));
        assert!(!cap.fits(&Resources::new(1.0, 2.5)));
    }

    #[test]
    fn fits_custom_resources() {
        let cap = Resources::cpus(1.0).with_custom("tpu", 2.0);
        assert!(cap.fits(&Resources::none().with_custom("tpu", 2.0)));
        assert!(!cap.fits(&Resources::none().with_custom("tpu", 3.0)));
        assert!(!cap.fits(&Resources::none().with_custom("fpga", 0.5)));
    }

    #[test]
    fn sub_then_add_round_trips() {
        let cap = Resources::new(8.0, 4.0).with_custom("mem", 16.0);
        let demand = Resources::new(2.5, 1.0).with_custom("mem", 3.5);
        let left = cap.checked_sub(&demand).unwrap();
        assert_eq!(left.add(&demand), cap);
    }

    #[test]
    fn checked_sub_fails_when_insufficient() {
        let cap = Resources::cpus(1.0);
        assert!(cap.checked_sub(&Resources::cpus(1.5)).is_none());
        assert!(cap.checked_sub(&Resources::gpus(0.5)).is_none());
    }

    #[test]
    fn a_refused_sub_assign_leaves_the_vector_as_it_was() {
        let mut cap = Resources::cpus(1.0).with_custom("tpu", 1.0);
        let before = cap.clone();
        assert!(!cap.try_sub_assign(&Resources::cpus(0.5).with_custom("tpu", 2.0)));
        assert_eq!(cap, before);
        assert!(cap.try_sub_assign(&Resources::cpus(0.5).with_custom("tpu", 1.0)));
        assert_eq!(cap, Resources::cpus(0.5));
    }

    #[test]
    fn fractional_quantities_are_exact() {
        let mut cap = Resources::cpus(1.0);
        for _ in 0..10 {
            cap = cap.checked_sub(&Resources::cpus(0.1)).unwrap();
        }
        assert!(cap.is_empty());
    }

    #[test]
    fn zero_custom_entries_are_pruned() {
        let cap = Resources::none().with_custom("x", 1.0);
        let left = cap.checked_sub(&Resources::none().with_custom("x", 1.0)).unwrap();
        assert!(left.is_empty());
        assert_eq!(left, Resources::none());
    }

    #[test]
    fn weight_sums_all_kinds() {
        let r = Resources::new(1.0, 2.0).with_custom("x", 3.0);
        assert_eq!(r.weight(), 6000);
    }
}
