//! The InfinityFabric xGMI link graph of a Bard Peak node (§3.1.3, Fig. 2).
//!
//! The node connects its processors with two generations of xGMI:
//!
//! * **xGMI 2.0** — eight CPU↔GCD links (one per CCD/GCD pair), 36+36 GB/s
//!   theoretical each;
//! * **xGMI 3.0** — GCD↔GCD links at 50+50 GB/s each, arranged in the
//!   *twisted ladder*: 4 parallel links between the two GCDs of one OAM
//!   package (200+200), 2 links between north/south neighbor OAMs
//!   (100+100), and single east/west links (50+50).
//!
//! The concrete pairing below follows the published Frontier/Crusher node
//! diagram: OAMs sit in a 2×2 arrangement, vertical (N/S) neighbors get
//! 2-link connections, horizontal (E/W) neighbors single links, and the
//! "twist" crosses the E/W links between die rows so that every GCD
//! participates in the ring. For the bandwidth experiments (Fig. 5) only the
//! link-class multiset per pair matters.

use frontier_sim_core::prelude::*;

/// Classes of xGMI connectivity in the Bard Peak node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// CPU(CCD) ↔ GCD, xGMI 2.0: 36+36 GB/s.
    CpuGcd,
    /// Two GCDs in the same OAM package: 4 × xGMI 3.0 = 200+200 GB/s.
    IntraOam,
    /// GCDs in north/south neighbor OAMs: 2 × xGMI 3.0 = 100+100 GB/s.
    InterOamNorthSouth,
    /// GCDs in east/west neighbor OAMs: 1 × xGMI 3.0 = 50+50 GB/s.
    InterOamEastWest,
}

impl LinkClass {
    /// Number of physical xGMI lanes bundled in this class.
    pub fn lanes(self) -> u32 {
        match self {
            LinkClass::CpuGcd => 1,
            LinkClass::IntraOam => 4,
            LinkClass::InterOamNorthSouth => 2,
            LinkClass::InterOamEastWest => 1,
        }
    }

    /// Theoretical peak per direction of one lane of this class.
    pub fn lane_bandwidth(self) -> Bandwidth {
        match self {
            LinkClass::CpuGcd => Bandwidth::gb_s(36.0),
            _ => Bandwidth::gb_s(50.0),
        }
    }

    /// Theoretical peak per direction of the full bundle.
    pub fn peak_bandwidth(self) -> Bandwidth {
        self.lane_bandwidth() * self.lanes() as f64
    }
}

/// One bundled xGMI connection between two node endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XgmiLink {
    /// Endpoint A: GCD index 0..8, or `CPU` for the host.
    pub a: Endpoint,
    /// Endpoint B.
    pub b: Endpoint,
    pub class: LinkClass,
}

/// A connectable element of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The Trento socket (CCD identified by the paired GCD's index).
    Cpu,
    /// A Graphics Compute Die, 0..8.
    Gcd(usize),
}

/// The intra-node topology of Bard Peak: 8 GCDs, 1 CPU, and the xGMI graph.
#[derive(Debug, Clone)]
pub struct NodeTopology {
    links: Vec<XgmiLink>,
}

impl NodeTopology {
    /// The Bard Peak twisted ladder (Fig. 2).
    ///
    /// OAM layout (2×2):
    /// ```text
    ///     OAM0 (G0,G1)   OAM1 (G2,G3)      north row
    ///     OAM2 (G4,G5)   OAM3 (G6,G7)      south row
    /// ```
    pub fn bard_peak() -> Self {
        let mut links = Vec::with_capacity(8 + 4 + 4 + 4);
        // CPU <-> each GCD (one CCD each; colors in Fig. 2).
        for g in 0..8 {
            links.push(XgmiLink {
                a: Endpoint::Cpu,
                b: Endpoint::Gcd(g),
                class: LinkClass::CpuGcd,
            });
        }
        // Intra-OAM: 4 lanes between package siblings.
        for oam in 0..4 {
            links.push(XgmiLink {
                a: Endpoint::Gcd(2 * oam),
                b: Endpoint::Gcd(2 * oam + 1),
                class: LinkClass::IntraOam,
            });
        }
        // North/South: 2-lane bundles between vertically adjacent OAMs
        // (OAM0-OAM2 and OAM1-OAM3), one per die column.
        for (a, b) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
            links.push(XgmiLink {
                a: Endpoint::Gcd(a),
                b: Endpoint::Gcd(b),
                class: LinkClass::InterOamNorthSouth,
            });
        }
        // East/West: single lanes between horizontally adjacent OAMs, with
        // the "twist" crossing the rows (G0-G3, G1-G2, G4-G7, G5-G6).
        for (a, b) in [(0, 3), (1, 2), (4, 7), (5, 6)] {
            links.push(XgmiLink {
                a: Endpoint::Gcd(a),
                b: Endpoint::Gcd(b),
                class: LinkClass::InterOamEastWest,
            });
        }
        NodeTopology { links }
    }

    pub fn links(&self) -> &[XgmiLink] {
        &self.links
    }

    /// The direct link between two endpoints, if one exists.
    pub fn link_between(&self, a: Endpoint, b: Endpoint) -> Option<&XgmiLink> {
        self.links
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Direct GCD↔GCD link class between two GCDs, if adjacent.
    pub fn gcd_link_class(&self, a: usize, b: usize) -> Option<LinkClass> {
        self.link_between(Endpoint::Gcd(a), Endpoint::Gcd(b))
            .map(|l| l.class)
    }

    /// All GCD pairs reachable by a direct link, with their class.
    pub fn gcd_pairs(&self) -> Vec<(usize, usize, LinkClass)> {
        self.links
            .iter()
            .filter_map(|l| match (l.a, l.b) {
                (Endpoint::Gcd(x), Endpoint::Gcd(y)) => Some((x, y, l.class)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_class_bandwidths_match_paper() {
        assert!((LinkClass::CpuGcd.peak_bandwidth().as_gb_s() - 36.0).abs() < 1e-9);
        assert!((LinkClass::IntraOam.peak_bandwidth().as_gb_s() - 200.0).abs() < 1e-9);
        assert!((LinkClass::InterOamNorthSouth.peak_bandwidth().as_gb_s() - 100.0).abs() < 1e-9);
        assert!((LinkClass::InterOamEastWest.peak_bandwidth().as_gb_s() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bard_peak_has_full_ladder() {
        let t = NodeTopology::bard_peak();
        // 8 CPU links + 4 intra-OAM + 4 N/S + 4 E/W.
        assert_eq!(t.links().len(), 20);
        assert_eq!(t.gcd_pairs().len(), 12);
    }

    #[test]
    fn every_gcd_has_cpu_link() {
        let t = NodeTopology::bard_peak();
        for g in 0..8 {
            let l = t.link_between(Endpoint::Cpu, Endpoint::Gcd(g)).unwrap();
            assert_eq!(l.class, LinkClass::CpuGcd);
        }
    }

    #[test]
    fn oam_siblings_have_four_lanes() {
        let t = NodeTopology::bard_peak();
        for oam in 0..4 {
            assert_eq!(
                t.gcd_link_class(2 * oam, 2 * oam + 1),
                Some(LinkClass::IntraOam)
            );
        }
    }

    #[test]
    fn link_classes_have_expected_multiset() {
        let t = NodeTopology::bard_peak();
        let mut n4 = 0;
        let mut n2 = 0;
        let mut n1 = 0;
        for (_, _, c) in t.gcd_pairs() {
            match c {
                LinkClass::IntraOam => n4 += 1,
                LinkClass::InterOamNorthSouth => n2 += 1,
                LinkClass::InterOamEastWest => n1 += 1,
                LinkClass::CpuGcd => unreachable!(),
            }
        }
        assert_eq!((n4, n2, n1), (4, 4, 4));
    }

    #[test]
    fn gcd_graph_is_connected() {
        let t = NodeTopology::bard_peak();
        let mut seen = [false; 8];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(g) = stack.pop() {
            for (a, b, _) in t.gcd_pairs() {
                let other = if a == g {
                    Some(b)
                } else if b == g {
                    Some(a)
                } else {
                    None
                };
                if let Some(o) = other {
                    if !seen[o] {
                        seen[o] = true;
                        stack.push(o);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "twisted ladder is connected");
    }

    #[test]
    fn every_gcd_touches_each_interoam_class_once() {
        let t = NodeTopology::bard_peak();
        for g in 0..8 {
            let mut ns = 0;
            let mut ew = 0;
            for (a, b, c) in t.gcd_pairs() {
                if a == g || b == g {
                    match c {
                        LinkClass::InterOamNorthSouth => ns += 1,
                        LinkClass::InterOamEastWest => ew += 1,
                        _ => {}
                    }
                }
            }
            assert_eq!((ns, ew), (1, 1), "GCD {g}");
        }
    }

    #[test]
    fn no_self_links_and_no_duplicates() {
        let t = NodeTopology::bard_peak();
        let pairs = t.gcd_pairs();
        for &(a, b, _) in &pairs {
            assert_ne!(a, b);
        }
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                let (a1, b1, _) = pairs[i];
                let (a2, b2, _) = pairs[j];
                assert!(
                    !((a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2)),
                    "duplicate link {a1}-{b1}"
                );
            }
        }
    }
}
