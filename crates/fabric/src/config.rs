//! Wire cost model for the simulated interconnect.
//!
//! The defaults approximate the paper's testbed: two nodes connected by
//! ConnectX-5 InfiniBand configured for 100 Gbps, driven through UCX 1.12.
//! Only the *shape* of results depends on these constants (who wins, where
//! crossovers fall); absolute values are not a reproduction target.

/// Parameters of the modeled network wire.
///
/// Each completed message adds modeled time to the fabric's
/// [`WireLedger`](crate::clock::WireLedger):
///
/// ```text
/// wire(msg) = latency_ns
///           + bytes / bandwidth_bytes_per_ns
///           + regions  * per_region_overhead_ns
///           + fragments * per_fragment_overhead_ns
///           + (2 * latency_ns   if rendezvous handshake was required)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// One-way base latency `α` in nanoseconds (default 1300 ns — small-message
    /// MPI latency on the paper's IB testbed is a couple of microseconds).
    pub latency_ns: f64,
    /// Link bandwidth `β` in bytes per nanosecond (default 12.5 = 100 Gbps).
    pub bandwidth_bytes_per_ns: f64,
    /// Fixed cost `γ` charged per scatter/gather (iov) entry beyond the
    /// first. Models NIC descriptor setup; makes many small regions slower
    /// than one packed buffer, as observed for NAS_LU_y / NAS_MG_x in Fig 10.
    pub per_region_overhead_ns: f64,
    /// Fixed cost `δ` charged per pipeline fragment beyond the first.
    pub per_fragment_overhead_ns: f64,
    /// Messages whose contiguous payload exceeds this many bytes switch from
    /// the eager protocol (bounce-buffer copy at post time) to rendezvous
    /// (handshake plus zero-copy transfer at match time). UCX on the paper's
    /// testbed switches at 32 KiB (the Fig 7 manual-pack dip at 2^15 bytes).
    pub rndv_threshold: usize,
    /// Pipeline fragment size for rendezvous transfers and for
    /// generic-datatype (callback) packing. UCX uses 64 KiB fragments.
    pub frag_size: usize,
    /// Deliver generic-datatype fragments to the unpack callback in a
    /// deterministic non-monotonic offset order. Models transports that
    /// complete fragments out of order; senders that set the paper's
    /// `inorder` flag suppress this (the engine then forces in-order
    /// delivery regardless of this setting).
    pub out_of_order_fragments: bool,
}

impl Default for WireModel {
    fn default() -> Self {
        Self {
            latency_ns: 1300.0,
            bandwidth_bytes_per_ns: 12.5,
            per_region_overhead_ns: 200.0,
            per_fragment_overhead_ns: 150.0,
            rndv_threshold: 32 * 1024,
            frag_size: 64 * 1024,
            out_of_order_fragments: false,
        }
    }
}

impl WireModel {
    /// The paper's testbed: ConnectX-5 InfiniBand at 100 Gbps through
    /// UCX 1.12 (this is [`Default::default`], spelled out).
    pub fn infiniband_100g() -> Self {
        Self::default()
    }

    /// A next-generation 200 Gbps link: half the per-byte cost, slightly
    /// lower base latency, same protocol structure. For what-if sweeps.
    pub fn infiniband_200g() -> Self {
        Self {
            latency_ns: 1000.0,
            bandwidth_bytes_per_ns: 25.0,
            per_region_overhead_ns: 150.0,
            per_fragment_overhead_ns: 100.0,
            rndv_threshold: 64 * 1024,
            frag_size: 64 * 1024,
            out_of_order_fragments: false,
        }
    }

    /// Commodity 10 GbE with kernel networking: high latency, modest
    /// bandwidth, expensive scatter/gather — the regime where packing beats
    /// regions almost everywhere.
    pub fn ethernet_10g() -> Self {
        Self {
            latency_ns: 15_000.0,
            bandwidth_bytes_per_ns: 1.25,
            per_region_overhead_ns: 1_000.0,
            per_fragment_overhead_ns: 500.0,
            rndv_threshold: 64 * 1024,
            frag_size: 64 * 1024,
            out_of_order_fragments: false,
        }
    }

    /// A model with zero modeled cost — useful in unit tests that assert on
    /// data movement only.
    pub fn zero_cost() -> Self {
        Self {
            latency_ns: 0.0,
            bandwidth_bytes_per_ns: f64::INFINITY,
            per_region_overhead_ns: 0.0,
            per_fragment_overhead_ns: 0.0,
            rndv_threshold: 32 * 1024,
            frag_size: 64 * 1024,
            out_of_order_fragments: false,
        }
    }

    /// Serial wire time of transferring `bytes` payload bytes.
    pub fn byte_time_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_ns
    }

    /// Whether a contiguous payload of `bytes` uses the rendezvous protocol.
    pub fn is_rendezvous(&self, bytes: usize) -> bool {
        bytes > self.rndv_threshold
    }

    /// Number of pipeline fragments a transfer of `bytes` is split into.
    pub fn fragments(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.frag_size)
        }
    }

    /// Full modeled wire time of one message.
    ///
    /// `regions` counts scatter/gather entries (0 or 1 both mean "a single
    /// contiguous payload"); `rendezvous` selects the handshake surcharge.
    pub fn message_time_ns(&self, bytes: usize, regions: usize, rendezvous: bool) -> f64 {
        let frags = self.fragments(bytes);
        let mut t = self.latency_ns + self.byte_time_ns(bytes);
        t += regions.saturating_sub(1) as f64 * self.per_region_overhead_ns;
        t += frags.saturating_sub(1) as f64 * self.per_fragment_overhead_ns;
        if rendezvous {
            t += 2.0 * self.latency_ns;
        }
        t
    }
}

/// Configuration of the fragment engine (the `transfer` and `pipeline`
/// modules in the crate sources).
///
/// Environment knobs, read once per process by [`PipelineConfig::from_env`]
/// (a value that is 0, not a number or above the maximum warns on stderr):
///
/// * `MPICD_PIPELINE_THREADS` — fragment-working threads, including the
///   posting thread, at most 64. `1` runs every transfer inline on the
///   posting thread and spawns no pool. Default:
///   `min(4, available_parallelism)`.
/// * `MPICD_PIPELINE_DEPTH` — bound on the ring of pooled per-fragment
///   scratch buffers (only packer→unpacker fragments need staging), at most
///   1024. Default: `2 × threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Total fragment-working threads, counting the thread that posted the
    /// transfer (which always participates). `1` means no worker pool.
    pub threads: usize,
    /// Maximum pooled scratch buffers checked out at once.
    pub depth: usize,
}

/// Ceilings on [`PipelineConfig`]'s `threads` and `depth`.
const MAX_THREADS: usize = 64;
const MAX_DEPTH: usize = 1024;

impl PipelineConfig {
    /// The process-wide default, from the `MPICD_PIPELINE_THREADS` and
    /// `MPICD_PIPELINE_DEPTH` knobs (read once and cached).
    pub fn from_env() -> Self {
        static CFG: std::sync::OnceLock<PipelineConfig> = std::sync::OnceLock::new();
        *CFG.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let bounded = |k, default: usize, max: usize| {
                mpicd_obs::config::env_bounded(k, default as u64, max as u64) as usize
            };
            let threads = bounded("MPICD_PIPELINE_THREADS", cores.min(4), MAX_THREADS);
            PipelineConfig {
                threads,
                depth: bounded("MPICD_PIPELINE_DEPTH", 2 * threads, MAX_DEPTH),
            }
        })
    }

    /// An explicit configuration with `threads` clamped to `1..=64`
    /// (benchmarks and tests that sweep thread counts without touching the
    /// environment). `with_threads(1)` runs every transfer inline.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        Self {
            threads,
            depth: 2 * threads,
        }
    }
}

/// How the fabric reacts when a sender's structural type signature
/// disagrees with the posted receive's (DESIGN.md §6i).
///
/// The comparison only fires when *both* sides carry a nonzero signature;
/// raw byte transfers (signature `0`, the "unchecked" sentinel) never
/// mismatch. Knob: `MPICD_TYPECHECK=off|warn|enforce`, default `warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TypecheckMode {
    /// Skip the comparison entirely (zero cost, pre-PR-10 behavior).
    Off,
    /// Compare, count `fabric.type_mismatch`, log one line on stderr, and
    /// proceed with the transfer (the default: observability without
    /// changing program behavior).
    #[default]
    Warn,
    /// Compare and fail the receive with
    /// [`FabricError::TypeMismatch`](crate::FabricError::TypeMismatch)
    /// before any payload is unpacked. The sender completes normally
    /// (arrival order must stay unobservable, exactly like `Truncated`).
    Enforce,
}

impl TypecheckMode {
    /// The process-wide default from `MPICD_TYPECHECK` (read once and
    /// cached; unrecognized values warn on stderr and fall back to
    /// `warn`).
    pub fn from_env() -> Self {
        static MODE: std::sync::OnceLock<TypecheckMode> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| {
            match mpicd_obs::config::env_choice(
                "MPICD_TYPECHECK",
                &["off", "warn", "enforce"],
                "warn",
            ) {
                "off" => TypecheckMode::Off,
                "enforce" => TypecheckMode::Enforce,
                _ => TypecheckMode::Warn,
            }
        })
    }
}

/// Configuration of the tag-matching engine (the `matching` module).
///
/// Environment knobs, read once per process by [`MatchConfig::from_env`]:
///
/// * `MPICD_MATCH_BUCKETS` — hash-bucket count of the exact-match
///   `(source, tag)` index in each per-destination queue, rounded up to a
///   power of two and clamped to `1..=65536`. `1` degenerates to the old
///   linear-scan matcher (every envelope shares one bucket). Default: 64.
/// * `MPICD_TYPECHECK` — signature-enforcement mode applied at match time
///   (see [`TypecheckMode`]). Default: `warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Exact-match hash buckets per queue (power of two, `1..=65536`).
    pub buckets: usize,
    /// Structural-signature enforcement mode (programmatic override of the
    /// `MPICD_TYPECHECK` knob, so parallel in-process tests can pin a mode
    /// without racing on the environment).
    pub typecheck: TypecheckMode,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            buckets: 64,
            typecheck: TypecheckMode::default(),
        }
    }
}

impl MatchConfig {
    /// The process-wide default, from `MPICD_MATCH_BUCKETS` and
    /// `MPICD_TYPECHECK` (read once and cached, like the other `MPICD_*`
    /// knob families; garbage values warn on stderr and fall back to the
    /// defaults).
    pub fn from_env() -> Self {
        static CFG: std::sync::OnceLock<MatchConfig> = std::sync::OnceLock::new();
        *CFG.get_or_init(|| MatchConfig {
            buckets: mpicd_obs::config::env_bounded("MPICD_MATCH_BUCKETS", 64, 1 << 16) as usize,
            typecheck: TypecheckMode::from_env(),
        })
    }

    /// The degenerate single-bucket engine: exact matches share one queue
    /// with the wildcard sideline, reproducing the old linear matcher's
    /// scan cost. Benchmarks use this as the comparison baseline.
    pub fn linear() -> Self {
        Self {
            buckets: 1,
            typecheck: TypecheckMode::default(),
        }
    }

    /// An explicit bucket count (benchmarks and tests sweeping the knob
    /// without touching the environment).
    pub fn with_buckets(buckets: usize) -> Self {
        Self {
            buckets: buckets.max(1),
            typecheck: TypecheckMode::default(),
        }
    }

    /// Builder: pin the signature-enforcement mode.
    pub fn with_typecheck(self, typecheck: TypecheckMode) -> Self {
        Self { typecheck, ..self }
    }
}

/// Bound on the eager bounce-buffer freelist (buffer count). A burst of
/// eager sends would otherwise retain peak memory forever. Knob:
/// `MPICD_BOUNCE_POOL_CAP` (read once per process; default 64, `0` disables
/// pooling).
pub(crate) fn bounce_pool_cap() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("MPICD_BOUNCE_POOL_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_config_constructors() {
        let p = PipelineConfig::with_threads(4);
        assert_eq!(p.threads, 4);
        assert_eq!(p.depth, 8);
        assert_eq!(PipelineConfig::with_threads(0).threads, 1);
        let top = PipelineConfig::with_threads(10_000);
        assert_eq!(top.threads, MAX_THREADS);
        assert_eq!(top.depth, 2 * MAX_THREADS);
    }

    #[test]
    fn match_config_constructors() {
        assert_eq!(MatchConfig::default().buckets, 64);
        assert_eq!(MatchConfig::linear().buckets, 1);
        assert_eq!(MatchConfig::with_buckets(0).buckets, 1);
        assert_eq!(MatchConfig::with_buckets(256).buckets, 256);
        // Every constructor defaults the typecheck mode to warn; the
        // builder overrides it without touching the bucket count.
        assert_eq!(MatchConfig::default().typecheck, TypecheckMode::Warn);
        assert_eq!(MatchConfig::linear().typecheck, TypecheckMode::Warn);
        let c = MatchConfig::with_buckets(256).with_typecheck(TypecheckMode::Enforce);
        assert_eq!(c.buckets, 256);
        assert_eq!(c.typecheck, TypecheckMode::Enforce);
    }

    #[test]
    fn default_matches_testbed() {
        let m = WireModel::default();
        assert_eq!(m.rndv_threshold, 32 * 1024);
        // 100 Gbps == 12.5 bytes/ns.
        assert!((m.bandwidth_bytes_per_ns - 12.5).abs() < 1e-9);
    }

    #[test]
    fn byte_time_scales_linearly() {
        let m = WireModel::default();
        let t1 = m.byte_time_ns(1 << 20);
        let t2 = m.byte_time_ns(1 << 21);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_switch_is_strictly_above_threshold() {
        let m = WireModel::default();
        assert!(!m.is_rendezvous(32 * 1024));
        assert!(m.is_rendezvous(32 * 1024 + 1));
    }

    #[test]
    fn fragment_count() {
        let m = WireModel::default();
        assert_eq!(m.fragments(0), 1);
        assert_eq!(m.fragments(1), 1);
        assert_eq!(m.fragments(64 * 1024), 1);
        assert_eq!(m.fragments(64 * 1024 + 1), 2);
        assert_eq!(m.fragments(256 * 1024), 4);
    }

    #[test]
    fn handshake_surcharge_applied_only_for_rendezvous() {
        let m = WireModel::default();
        let eager = m.message_time_ns(1024, 1, false);
        let rndv = m.message_time_ns(1024, 1, true);
        assert!((rndv - eager - 2.0 * m.latency_ns).abs() < 1e-9);
    }

    #[test]
    fn region_overhead_charged_beyond_first() {
        let m = WireModel::default();
        let one = m.message_time_ns(4096, 1, false);
        let four = m.message_time_ns(4096, 4, false);
        assert!((four - one - 3.0 * m.per_region_overhead_ns).abs() < 1e-9);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let ib100 = WireModel::infiniband_100g();
        let ib200 = WireModel::infiniband_200g();
        let eth = WireModel::ethernet_10g();
        let t = |m: &WireModel| m.message_time_ns(1 << 20, 4, true);
        assert!(t(&ib200) < t(&ib100));
        assert!(t(&ib100) < t(&eth));
    }

    #[test]
    fn zero_cost_model_is_free() {
        let m = WireModel::zero_cost();
        assert_eq!(m.message_time_ns(1 << 20, 8, true), 0.0);
    }
}
