//! Network model for the server → client (proxy) link.
//!
//! The paper's end-to-end numbers place the client in the same datacenter
//! (2 Gbps TCP), then §6.6 artificially degrades the link to 100 Mbps/10 ms
//! and 10 Mbps/100 ms with `tc` to show that Seabed's compressed ID lists keep
//! the WAN penalty small. The harness reproduces this with a simple
//! bandwidth + RTT model applied to the measured result size.

use std::time::Duration;

/// A point-to-point network link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Round-trip time.
    pub rtt: Duration,
}

impl NetworkModel {
    /// The in-cluster link used by default in the paper's experiments
    /// (≈2 Gbps, negligible RTT).
    pub fn datacenter() -> NetworkModel {
        NetworkModel {
            bandwidth_bps: 2e9,
            rtt: Duration::from_micros(200),
        }
    }

    /// The 100 Mbps / 10 ms link of §6.6.
    pub fn wan_100mbps() -> NetworkModel {
        NetworkModel {
            bandwidth_bps: 100e6,
            rtt: Duration::from_millis(10),
        }
    }

    /// The 10 Mbps / 100 ms link of §6.6.
    pub fn wan_10mbps() -> NetworkModel {
        NetworkModel {
            bandwidth_bps: 10e6,
            rtt: Duration::from_millis(100),
        }
    }

    /// Time to transfer `bytes` over the link: one RTT plus serialization time.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let seconds = (bytes as f64 * 8.0) / self.bandwidth_bps;
        self.rtt + Duration::from_secs_f64(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let net = NetworkModel::wan_100mbps();
        let small = net.transfer_time(1_000);
        let large = net.transfer_time(10_000_000);
        assert!(large > small);
        // 10 MB at 100 Mbps is 0.8 s of serialization.
        assert!(large >= Duration::from_millis(800));
        assert!(large < Duration::from_millis(900));
    }

    #[test]
    fn rtt_dominates_tiny_transfers() {
        let net = NetworkModel::wan_10mbps();
        let t = net.transfer_time(100);
        assert!(t >= Duration::from_millis(100));
        assert!(t < Duration::from_millis(102));
    }

    #[test]
    fn datacenter_link_is_fast() {
        let net = NetworkModel::datacenter();
        // 160 KB (a typical Ad-Analytics ID list) transfers in well under 10 ms.
        assert!(net.transfer_time(163_500) < Duration::from_millis(10));
    }

    #[test]
    fn slower_links_are_slower() {
        let bytes = 1_000_000;
        assert!(NetworkModel::wan_10mbps().transfer_time(bytes) > NetworkModel::wan_100mbps().transfer_time(bytes));
        assert!(NetworkModel::wan_100mbps().transfer_time(bytes) > NetworkModel::datacenter().transfer_time(bytes));
    }
}
