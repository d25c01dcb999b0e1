//! DHT protocol configuration.

use pier_simnet::Duration;

/// Tunable parameters of the Chord-style overlay and its soft-state storage.
///
/// The defaults are scaled for simulations of a few hundred to a few thousand
/// nodes with wide-area latencies; they correspond to the periodic-recovery
/// settings the Bamboo paper recommends for PlanetLab-like churn.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Length of the successor list (fault tolerance of ring connectivity).
    pub successor_list_len: usize,
    /// How many finger-table entries to actively maintain.  160 is the full
    /// Chord table; maintaining ~2·log2(n) is enough in practice and keeps
    /// maintenance traffic low.
    pub finger_count: usize,
    /// Period between stabilization rounds (successor/predecessor refresh).
    pub stabilize_interval: Duration,
    /// Period between finger-table refresh steps (one finger per round).
    pub fix_finger_interval: Duration,
    /// Period between liveness probes of neighbors.
    pub ping_interval: Duration,
    /// A neighbor that has not answered a probe for this long is declared dead.
    pub failure_timeout: Duration,
    /// Period between soft-state expiry sweeps.
    pub storage_sweep_interval: Duration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            successor_list_len: 8,
            finger_count: 64,
            stabilize_interval: Duration::from_millis(500),
            fix_finger_interval: Duration::from_millis(250),
            ping_interval: Duration::from_millis(1_000),
            failure_timeout: Duration::from_millis(3_000),
            storage_sweep_interval: Duration::from_secs(5),
        }
    }
}

impl DhtConfig {
    /// A configuration with faster maintenance for small test rings, so that
    /// unit and integration tests converge quickly.
    pub fn fast_test() -> Self {
        DhtConfig {
            successor_list_len: 4,
            finger_count: 32,
            stabilize_interval: Duration::from_millis(100),
            fix_finger_interval: Duration::from_millis(50),
            ping_interval: Duration::from_millis(200),
            failure_timeout: Duration::from_millis(800),
            storage_sweep_interval: Duration::from_millis(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DhtConfig::default();
        assert!(c.successor_list_len >= 2);
        assert!(c.finger_count > 0 && c.finger_count <= 160);
        assert!(c.failure_timeout > c.ping_interval);
    }

    #[test]
    fn fast_test_is_faster() {
        let fast = DhtConfig::fast_test();
        let def = DhtConfig::default();
        assert!(fast.stabilize_interval < def.stabilize_interval);
        assert!(fast.failure_timeout < def.failure_timeout);
    }
}
