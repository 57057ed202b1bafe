//! Seeded request generators for the two workloads.
//!
//! Every request is a pure function of `(seed, index)`: client threads
//! claim indices from a shared counter and build the request just
//! before sending it, and the oracle rebuilds the same request later to
//! check the answer. Nothing here talks to the program under test.

use ccmx_comm::BitString;
use ccmx_net::{ProtoSpec, Request};

/// splitmix64: small, fast, and good enough to derive inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for stream `tag` of item `index` under `seed`.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Rng {
        Rng(mix(mix(seed, tag), index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    fn bits(&mut self, len: usize) -> BitString {
        BitString::from_bits((0..len).map(|_| self.next_u64() & 1 == 1).collect())
    }
}

fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

// Stream tags, so classes drawn from one seed never share randomness.
const TAG_CLASS: u64 = 1;
const TAG_SING: u64 = 2;
const TAG_CC: u64 = 3;
const TAG_RUN: u64 = 4;
const TAG_BOUNDS: u64 = 5;

/// Entry width of every Singularity request.
pub const SING_K: u32 = 32;
/// Truth-matrix sides of the CcSearch class.
pub const CC_DIMS: std::ops::RangeInclusive<usize> = 14..=18;
/// Number of CC bases, one per side in [`CC_DIMS`].
pub const CC_BASES: usize = 5;
/// Depth budget sent with every CcSearch (never truncates at these
/// sizes, so every answer is exact).
pub const CC_DEPTH: u32 = 32;
/// Security parameter of the randomized protocols.
pub const SECURITY: u32 = 20;
/// Per-kind LRU capacity of a server (`ServerConfig` default).
pub const CACHE_CAPACITY: usize = 64;
/// Records of each kind (Bounds, Singularity) in `kernel_cold`'s store
/// at every boot.
pub const STORED_PER_KIND: usize = 24;
/// Bounds side of the stored records: odd and past [`BoundsGrid`]'s
/// largest, so no request of the workload carries a stored key.
const STORED_BOUNDS_N: usize = 23;
/// Singularity dim of the stored records: no request class uses it.
const STORED_SING_DIM: usize = 8;
/// Generator indices of the in-process probes: far past any index a
/// timed window reaches, so probes never repeat a served request.
pub const PROBE_BASE: u64 = 1 << 40;
/// Members per `Batch` frame on `cluster_batch`. A frame this large
/// carries several milliseconds of decode, lookup, run and miss work
/// per process hop, so the wake-ups and system calls of the
/// client→coordinator→shard hops, whose cost follows the host's load,
/// are a small share of its CPU time and latency.
pub const BATCH_MEMBERS: usize = 64;

/// What the oracle needs beyond the request itself.
#[derive(Clone, Debug, PartialEq)]
pub enum Hint {
    None,
    /// Singularity input built as a random matrix (`false`) or with one
    /// row the sum of two others (`true`).
    Singular(bool),
    /// CcSearch input: a row and column permutation of CC base `usize`.
    CcBase(usize),
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Item {
    pub req: Request,
    pub hint: Hint,
    /// Batch members' hints, in member order.
    pub members: Vec<Hint>,
}

impl Item {
    fn single(req: Request, hint: Hint) -> Item {
        Item {
            req,
            hint,
            members: Vec::new(),
        }
    }
}

/// Row-major, LSB-first encoding of a `dim × dim` matrix of `k`-bit
/// entries, bit `((row·dim)+col)·k + bit` — the layout of
/// `ccmx_comm::MatrixEncoding`.
pub fn encode_matrix(dim: usize, k: u32, entries: &[u64]) -> BitString {
    let mut bits = Vec::with_capacity(dim * dim * k as usize);
    for &e in entries {
        for b in 0..k {
            bits.push((e >> b) & 1 == 1);
        }
    }
    BitString::from_bits(bits)
}

/// Entries of a `dim × dim` matrix of `SING_K`-bit values. A singular
/// one has a row equal to the sum of two other rows (31-bit summands,
/// so the sum still fits); a nonsingular-by-chance one is uniform.
pub fn sing_entries(rng: &mut Rng, dim: usize, singular: bool) -> Vec<u64> {
    let width = if singular { SING_K - 1 } else { SING_K };
    let mut e: Vec<u64> = (0..dim * dim)
        .map(|_| rng.next_u64() >> (64 - width))
        .collect();
    if singular {
        let mut rows: Vec<usize> = (0..dim).collect();
        rng.shuffle(&mut rows);
        let (a, b, target) = (rows[0], rows[1], rows[2]);
        for c in 0..dim {
            e[target * dim + c] = e[a * dim + c] + e[b * dim + c];
        }
    }
    e
}

pub fn sing_request(dim: usize, entries: &[u64]) -> Request {
    Request::Singularity {
        dim,
        k: SING_K,
        input: encode_matrix(dim, SING_K, entries),
    }
}

/// A Singularity item drawn from stream `index` of `seed`.
pub fn sing_item(seed: u64, index: u64, dim: usize, singular: bool) -> (Item, Vec<u64>) {
    let mut rng = Rng::derive(seed, TAG_SING, index);
    let entries = sing_entries(&mut rng, dim, singular);
    (
        Item::single(sing_request(dim, &entries), Hint::Singular(singular)),
        entries,
    )
}

/// An intersection-threshold truth matrix on labels `0..dim`: entry
/// `(x, y)` is `popcount(x & y) >= 2` — the family E20 benches, where
/// the rank bounds leave a real gap at the root so the solver branches.
#[derive(Clone, Copy, Debug)]
pub struct CcBase {
    pub dim: usize,
}

impl CcBase {
    /// Row-major truth bits under row order `rp` and column order `cp`.
    pub fn bits(&self, rp: &[usize], cp: &[usize]) -> BitString {
        let mut bits = Vec::with_capacity(self.dim * self.dim);
        for &r in rp {
            for &c in cp {
                bits.push((r & c).count_ones() >= 2);
            }
        }
        BitString::from_bits(bits)
    }
}

/// The CC bases, one per side in [`CC_DIMS`]. The seed only permutes
/// them ([`cc_item`]), so every seed's solves cost the same.
pub fn cc_bases() -> Vec<CcBase> {
    CC_DIMS.map(|dim| CcBase { dim }).collect()
}

/// A CcSearch item: a random row and column permutation of base `b`.
/// CC is invariant under both, so the oracle solves each base once.
pub fn cc_item(seed: u64, index: u64, bases: &[CcBase], b: usize) -> Item {
    let mut rng = Rng::derive(seed, TAG_CC, index);
    let base = &bases[b];
    let mut rp: Vec<usize> = (0..base.dim).collect();
    let mut cp = rp.clone();
    rng.shuffle(&mut rp);
    rng.shuffle(&mut cp);
    Item::single(
        Request::CcSearch {
            rows: base.dim,
            cols: base.dim,
            bits: base.bits(&rp, &cp),
            depth_limit: CC_DEPTH,
        },
        Hint::CcBase(b),
    )
}

/// A `Run` item of `spec` on a uniform random input.
pub fn run_item(seed: u64, index: u64, spec: ProtoSpec) -> Item {
    let mut rng = Rng::derive(seed, TAG_RUN, index);
    let input = rng.bits(input_bits(spec));
    let run_seed = rng.next_u64();
    Item::single(
        Request::Run {
            spec,
            input,
            seed: run_seed,
        },
        Hint::None,
    )
}

fn input_bits(spec: ProtoSpec) -> usize {
    match spec {
        ProtoSpec::SendAllSingularity { dim, k }
        | ProtoSpec::ModPrimeSingularity { dim, k, .. } => dim * dim * k as usize,
        ProtoSpec::FingerprintEquality { half_bits, .. } => 2 * half_bits,
    }
}

/// Every valid `(n, k, security)` Bounds key, in a seeded order.
/// `bounds_key(seed, i)` is distinct for distinct `i < len`.
pub struct BoundsGrid {
    keys: Vec<(usize, u32, u32)>,
}

impl BoundsGrid {
    pub fn new(seed: u64) -> BoundsGrid {
        let mut keys = Vec::new();
        for n in (5..=21).step_by(2) {
            for k in 2..=63 {
                for security in 8..=64 {
                    keys.push((n, k, security));
                }
            }
        }
        Rng::derive(seed, TAG_BOUNDS, 0).shuffle(&mut keys);
        BoundsGrid { keys }
    }

    pub fn request(&self, i: usize) -> Request {
        let (n, k, security) = self.keys[i % self.keys.len()];
        Request::Bounds { n, k, security }
    }
}

/// The protocol specs of `kernel_cold`'s Run class.
pub const COLD_RUN_SPECS: [ProtoSpec; 2] = [
    ProtoSpec::ModPrimeSingularity {
        dim: 8,
        k: 16,
        security: SECURITY,
    },
    ProtoSpec::SendAllSingularity { dim: 8, k: 16 },
];

/// The Run specs of `cluster_batch`.
pub const BATCH_RUN_SPECS: [ProtoSpec; 2] = [
    ProtoSpec::ModPrimeSingularity {
        dim: 6,
        k: 8,
        security: SECURITY,
    },
    ProtoSpec::SendAllSingularity { dim: 6, k: 8 },
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KernelCold,
    ClusterBatch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::KernelCold, Workload::ClusterBatch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelCold => "kernel_cold",
            Workload::ClusterBatch => "cluster_batch",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A request class on `kernel_cold`.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Singularity at this dim, forced singular or uniform.
    Sing(usize, bool),
    /// CcSearch; the `n`-th CC slot of a period.
    Cc(u64),
    /// Run of `COLD_RUN_SPECS[_]`.
    Run(usize),
    Bounds,
}

/// One period of `kernel_cold`: half the Singularity requests forced
/// singular, small dims more common than large ones. Runs and Bounds
/// are 70% of every period, so the median request is a cheap one and
/// `latency_p50_ms` sits inside that dense cluster rather than on the
/// steep middle of the distribution, where the singular-rank tail
/// begins.
const COLD_SCHEDULE: [Slot; 48] = [
    Slot::Sing(16, true),
    Slot::Sing(16, true),
    Slot::Sing(16, true),
    Slot::Sing(16, false),
    Slot::Sing(16, false),
    Slot::Sing(16, false),
    Slot::Sing(32, true),
    Slot::Sing(32, true),
    Slot::Sing(32, false),
    Slot::Sing(32, false),
    Slot::Sing(48, true),
    Slot::Sing(48, false),
    Slot::Cc(0),
    Slot::Cc(1),
    Slot::Run(0),
    Slot::Run(0),
    Slot::Run(0),
    Slot::Run(0),
    Slot::Run(0),
    Slot::Run(1),
    Slot::Run(1),
    Slot::Run(1),
    Slot::Run(1),
    Slot::Run(1),
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
    Slot::Bounds,
];

/// CcSearch slots per `kernel_cold` period.
const COLD_CC_SLOTS: u64 = 2;

/// A workload's request source: `item(i)` is the `i`-th request.
pub struct Generator {
    pub workload: Workload,
    pub seed: u64,
    pub cc_bases: Vec<CcBase>,
    bounds: BoundsGrid,
    /// `cluster_batch`'s key set.
    keys: Vec<Item>,
    /// Cumulative Zipf weights over `keys` (`cluster_batch`).
    zipf_cdf: Vec<f64>,
}

/// Keys per kind on `cluster_batch`: three times what one shard's LRU
/// holds, so each of the two shards sees more keys of a cached kind
/// than it can keep.
pub const BATCH_KEYS_PER_KIND: usize = 3 * CACHE_CAPACITY;
/// Zipf exponent of `cluster_batch`'s key popularity.
pub const ZIPF_S: f64 = 1.0;

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let cc_bases = cc_bases();
        let bounds = BoundsGrid::new(seed);
        let mut g = Generator {
            workload,
            seed,
            cc_bases,
            bounds,
            keys: Vec::new(),
            zipf_cdf: Vec::new(),
        };
        match workload {
            Workload::KernelCold => {}
            Workload::ClusterBatch => {
                g.keys = g.batch_key_set();
                // Popularity rank r gets weight 1/(r+1)^s.
                let weights: Vec<f64> = (0..g.keys.len())
                    .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                g.zipf_cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
            }
        }
        g
    }

    /// The records `kernel_cold`'s server recovers from its store at
    /// every boot (empty on other workloads). Their keys are ones no
    /// request of the workload carries, so the caches they warm are
    /// never hit.
    pub fn stored_set(&self) -> Vec<Item> {
        if self.workload != Workload::KernelCold {
            return Vec::new();
        }
        (0..STORED_PER_KIND)
            .flat_map(|j| {
                let bounds = Request::Bounds {
                    n: STORED_BOUNDS_N,
                    k: 2 + j as u32,
                    security: SECURITY,
                };
                [
                    Item::single(bounds, Hint::None),
                    sing_item(self.seed, j as u64, STORED_SING_DIM, j % 2 == 0).0,
                ]
            })
            .collect()
    }

    /// `cluster_batch`'s whole key set (empty on other workloads).
    pub fn key_set(&self) -> &[Item] {
        match self.workload {
            Workload::ClusterBatch => &self.keys,
            _ => &[],
        }
    }

    /// `cluster_batch`'s keys in popularity order: rank `r` is a Bounds,
    /// Singularity or Run key as `r % 3` is 0, 1 or 2, so every seed has
    /// the same mix at every popularity; the seed only picks the keys.
    fn batch_key_set(&self) -> Vec<Item> {
        (0..3 * BATCH_KEYS_PER_KIND)
            .map(|r| {
                let j = (r / 3) as u64;
                match r % 3 {
                    0 => Item::single(self.bounds.request(j as usize), Hint::None),
                    1 => sing_item(self.seed, j, 16, j.is_multiple_of(2)).0,
                    _ => run_item(self.seed, j, BATCH_RUN_SPECS[(j % 2) as usize]),
                }
            })
            .collect()
    }

    /// The `i`-th request of the workload.
    pub fn item(&self, i: u64) -> Item {
        match self.workload {
            Workload::KernelCold => {
                // Every index is a fresh key: Bounds keys walk the
                // shuffled grid, the other classes draw fresh inputs.
                match COLD_SCHEDULE[self.slot(i, COLD_SCHEDULE.len())] {
                    Slot::Sing(dim, singular) => sing_item(self.seed, i, dim, singular).0,
                    Slot::Cc(n) => {
                        // Consecutive CC slots walk the bases in turn.
                        let b = (COLD_CC_SLOTS * (i / COLD_SCHEDULE.len() as u64) + n)
                            % CC_BASES as u64;
                        cc_item(self.seed, i, &self.cc_bases, b as usize)
                    }
                    Slot::Run(spec) => run_item(self.seed, i, COLD_RUN_SPECS[spec]),
                    Slot::Bounds => Item::single(self.bounds.request(i as usize), Hint::None),
                }
            }
            Workload::ClusterBatch => {
                let mut rng = Rng::derive(self.seed, TAG_CLASS, i);
                let mut reqs = Vec::with_capacity(BATCH_MEMBERS);
                let mut members = Vec::with_capacity(BATCH_MEMBERS);
                for _ in 0..BATCH_MEMBERS {
                    let u = rng.unit();
                    let k = self.zipf_cdf.partition_point(|&c| c < u);
                    let key = &self.keys[k.min(self.keys.len() - 1)];
                    reqs.push(key.req.clone());
                    members.push(key.hint.clone());
                }
                Item {
                    req: Request::Batch(reqs),
                    hint: Hint::None,
                    members,
                }
            }
        }
    }

    /// Position of index `i` in its period of `len` slots: each period
    /// is a seeded shuffle of `0..len`, so every class appears in exact
    /// proportion and the work per window varies little from run to run.
    fn slot(&self, i: u64, len: usize) -> usize {
        let period = i / len as u64;
        let mut order: Vec<usize> = (0..len).collect();
        Rng::derive(self.seed, TAG_CLASS, period).shuffle(&mut order);
        order[(i % len as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_net::WireCodec;

    #[test]
    fn generator_is_deterministic() {
        for w in Workload::ALL {
            let a = Generator::new(w, 7);
            let b = Generator::new(w, 7);
            let c = Generator::new(w, 8);
            let mut differs = false;
            for i in 0..64 {
                let (x, y) = (a.item(i), b.item(i));
                assert_eq!(x.req.to_wire_bytes(), y.req.to_wire_bytes());
                assert_eq!(x.hint, y.hint);
                assert_eq!(x.members, y.members);
                differs |= x.req.to_wire_bytes() != c.item(i).req.to_wire_bytes();
            }
            assert!(differs, "{}: another seed gives other inputs", w.name());
        }
    }

    #[test]
    fn kernel_cold_keys_are_distinct() {
        let g = Generator::new(Workload::KernelCold, 11);
        // The stored records' keys come first: no request may repeat
        // one, or a warm-seeded cache entry would be hit.
        let mut seen: std::collections::HashSet<Vec<u8>> = g
            .stored_set()
            .iter()
            .map(|it| it.req.to_wire_bytes())
            .collect();
        assert_eq!(seen.len(), 2 * STORED_PER_KIND);
        for i in 0..2000 {
            assert!(seen.insert(g.item(i).req.to_wire_bytes()), "index {i}");
        }
    }

    #[test]
    fn encoding_matches_the_library_layout() {
        let mut rng = Rng::new(5);
        for dim in [2, 5, 16] {
            let e = sing_entries(&mut rng, dim, dim > 2);
            let m = ccmx_linalg::Matrix::from_fn(dim, dim, |r, c| {
                ccmx_bigint::Integer::from(e[r * dim + c] as i64)
            });
            let lib = ccmx_comm::MatrixEncoding::new(dim, SING_K).encode(&m);
            assert_eq!(lib, encode_matrix(dim, SING_K, &e));
        }
    }

    #[test]
    fn constructed_singular_matrices_are_singular() {
        let mut rng = Rng::new(9);
        for dim in [3, 8] {
            let e = sing_entries(&mut rng, dim, true);
            let m = ccmx_linalg::Matrix::from_fn(dim, dim, |r, c| {
                ccmx_bigint::Integer::from(e[r * dim + c] as i64)
            });
            assert!(ccmx_linalg::bareiss::is_singular(&m));
            assert!(e.iter().all(|&x| x < 1 << SING_K));
        }
    }
}
