//! Router and network configuration (Table I of the paper).

use crate::topology::Mesh;
use serde::{Deserialize, Serialize};

/// Parameters of a single router (Table I).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Virtual channels per input port (Table I: 4).
    pub vcs_per_port: u8,
    /// Buffer depth per VC, in flits (Table I: 5).
    pub buf_depth: u8,
    /// Channel (flit) width in bytes (Table I: 16).
    pub channel_bytes: u16,
    /// Use minimal-adaptive routing for configuration packets (Table I);
    /// data packets always use deterministic X-Y routing.
    pub adaptive_config_routing: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vcs_per_port: 4,
            buf_depth: 5,
            channel_bytes: 16,
            adaptive_config_routing: true,
        }
    }
}

impl RouterConfig {
    /// Total buffer capacity of one input port, in flits.
    pub fn port_buffer_flits(&self) -> u32 {
        self.vcs_per_port as u32 * self.buf_depth as u32
    }
}

/// Parameters of the whole network.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    pub mesh: Mesh,
    pub router: RouterConfig,
    /// Packet length for packet-switched data packets, in flits
    /// (Table I: 5 — a 64 B line in 16 B flits plus the header flit).
    pub ps_packet_flits: u8,
    /// Packet length for circuit-switched data packets (Table I: 4 — no
    /// header needed on a reserved path).
    pub cs_packet_flits: u8,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            mesh: Mesh::square(6),
            router: RouterConfig::default(),
            ps_packet_flits: 5,
            cs_packet_flits: 4,
        }
    }
}

impl NetworkConfig {
    pub fn with_mesh(mesh: Mesh) -> Self {
        NetworkConfig {
            mesh,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = NetworkConfig::default();
        assert_eq!(c.mesh.len(), 36);
        assert_eq!(c.router.vcs_per_port, 4);
        assert_eq!(c.router.buf_depth, 5);
        assert_eq!(c.router.channel_bytes, 16);
        assert_eq!(c.ps_packet_flits, 5);
        assert_eq!(c.cs_packet_flits, 4);
        assert_eq!(c.router.port_buffer_flits(), 20);
    }
}
