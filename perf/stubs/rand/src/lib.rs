//! Empty stand-in: `ray-rl` depends on `rand` but uses nothing from it.
