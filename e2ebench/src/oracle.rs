//! The correctness oracle: an answer for every request, computed in
//! this process and compared with what the server sent.
//!
//! * Singularity — a forced-singular matrix is singular by construction;
//!   any other is nonsingular when its determinant mod the Mersenne
//!   prime 2^61 − 1 is nonzero (computed here, independently of the
//!   library), and otherwise decided by Bareiss elimination.
//! * CcSearch — `ccmx_search::solve` on the unpermuted base (CC is
//!   invariant under row and column permutation), and any certificate
//!   the server returns must decode, describe the requested matrix and
//!   pass the independent verifier.
//! * Run — `run_sequential` on the same spec, input and seed, compared
//!   byte for byte in wire encoding.
//! * Bounds — the Theorem 1.1 counting functions, compared byte for
//!   byte in wire encoding.

use std::collections::HashMap;
use std::sync::Mutex;

use ccmx_comm::protocol::run_sequential;
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::BitString;
use ccmx_core::{counting, Params};
use ccmx_net::{BoundsReport, Request, Response, WireCodec};

use crate::gen::{CcBase, Hint, Item};

/// Verdict on one top-level response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Top-level requests checked (set by the caller).
    pub attempted: u64,
    /// The server answered with an error.
    pub errors: u64,
    /// The server answered, wrongly.
    pub wrong: u64,
    /// `Run` answers checked, and their transcript bits.
    pub runs: u64,
    pub run_bits: u64,
}

impl Check {
    pub fn ok(&self) -> bool {
        self.errors == 0 && self.wrong == 0
    }

    pub fn add(&mut self, o: Check) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.runs += o.runs;
        self.run_bits += o.run_bits;
    }
}

pub struct Oracle {
    /// Exact CC of each base.
    cc: Vec<u32>,
    /// Expected wire bytes of deterministic answers, by request bytes.
    memo: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
}

impl Oracle {
    /// Solve every CC base up front (untimed).
    pub fn new(bases: &[CcBase]) -> Oracle {
        let cc = bases
            .iter()
            .map(|b| {
                let order: Vec<usize> = (0..b.dim).collect();
                let bits = b.bits(&order, &order);
                let t = TruthMatrix::from_fn(b.dim, b.dim, |x, y| bits.get(x * b.dim + y));
                let r = ccmx_search::solve(&t, &ccmx_search::SearchConfig::default())
                    .expect("CC bases are within the search caps");
                assert!(r.exact, "the default depth budget never truncates");
                r.cc
            })
            .collect();
        Oracle {
            cc,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Check `resp` against `item`; a response of the wrong shape, an
    /// error or a wrong answer fails it.
    pub fn check(&self, item: &Item, resp: &Response) -> Check {
        match (&item.req, resp) {
            (Request::Batch(reqs), Response::Batch(resps)) if resps.len() == reqs.len() => {
                let mut c = Check::default();
                for ((req, hint), resp) in reqs.iter().zip(&item.members).zip(resps) {
                    c.add(self.check_one(req, hint, resp));
                }
                c
            }
            (Request::Batch(_), Response::Error(_)) => Check {
                errors: 1,
                ..Check::default()
            },
            (Request::Batch(_), _) => Check {
                wrong: 1,
                ..Check::default()
            },
            (req, resp) => self.check_one(req, &item.hint, resp),
        }
    }

    fn check_one(&self, req: &Request, hint: &Hint, resp: &Response) -> Check {
        let mut c = Check::default();
        if matches!(resp, Response::Error(_)) {
            c.errors = 1;
            return c;
        }
        let right = match (req, hint) {
            (
                Request::CcSearch {
                    rows, cols, bits, ..
                },
                Hint::CcBase(b),
            ) => self.cc_ok(*rows, *cols, bits, self.cc[*b], resp),
            _ => {
                if let Response::Run(r) = resp {
                    c.runs = 1;
                    c.run_bits = r.cost_bits() as u64;
                }
                let key = req.to_wire_bytes();
                let expected = {
                    let memo = self.memo.lock().expect("oracle memo lock");
                    memo.get(&key).cloned()
                };
                let expected = expected.unwrap_or_else(|| {
                    let e = expected_bytes(req, hint);
                    self.memo
                        .lock()
                        .expect("oracle memo lock")
                        .insert(key, e.clone());
                    e
                });
                resp.to_wire_bytes() == expected
            }
        };
        if !right {
            c.wrong = 1;
        }
        c
    }

    fn cc_ok(&self, rows: usize, cols: usize, bits: &BitString, cc: u32, resp: &Response) -> bool {
        let Response::CcSearch {
            cc: got,
            exact,
            certificate,
            ..
        } = resp
        else {
            return false;
        };
        if !*exact || *got != cc {
            return false;
        }
        if certificate.is_empty() {
            return true;
        }
        let Ok(cert) = ccmx_search::CcCertificate::from_bytes(certificate) else {
            return false;
        };
        let m = cert.matrix();
        m.rows() == rows
            && m.cols() == cols
            && (0..rows).all(|x| (0..cols).all(|y| m.get(x, y) == bits.get(x * cols + y)))
            && cert.verify().is_ok()
    }
}

/// The Theorem 1.1 report for `(n, k, security)` from the counting
/// functions: the oracle's expected answer and the replayed `core` work.
pub fn bounds_report(n: usize, k: u32, security: u32) -> BoundsReport {
    let p = Params::new(n, k);
    BoundsReport {
        n,
        k,
        security,
        lower_bound_bits: counting::theorem_bound(p).lower_bound_bits,
        deterministic_upper_bits: counting::deterministic_upper_bound_bits(p),
        randomized_upper_bits: counting::probabilistic_upper_bound_bits(p, security),
    }
}

/// Wire bytes of the right answer to a deterministic request.
fn expected_bytes(req: &Request, hint: &Hint) -> Vec<u8> {
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Bounds { n, k, security } => Response::Bounds(bounds_report(*n, *k, *security)),
        Request::Run { spec, input, seed } => {
            let lab = spec.build();
            Response::Run(run_sequential(
                lab.proto.as_ref(),
                &lab.partition,
                input,
                *seed,
            ))
        }
        Request::Singularity { dim, k, input } => Response::Singularity {
            singular: match hint {
                Hint::Singular(true) => true,
                _ => is_singular(*dim, *k, input),
            },
        },
        other => panic!("no oracle for {other:?}"),
    };
    resp.to_wire_bytes()
}

const P61: u64 = (1 << 61) - 1;

fn mul_mod(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(P61)) as u64
}

fn pow_mod(mut a: u64, mut e: u64) -> u64 {
    let mut r = 1;
    while e > 0 {
        if e & 1 == 1 {
            r = mul_mod(r, a);
        }
        a = mul_mod(a, a);
        e >>= 1;
    }
    r
}

/// Entries of an encoded `dim × dim` matrix of `k`-bit entries.
pub fn decode_entries(dim: usize, k: u32, input: &BitString) -> Vec<u64> {
    (0..dim * dim)
        .map(|e| {
            (0..k as usize).fold(0u64, |acc, b| {
                acc | (u64::from(input.get(e * k as usize + b)) << b)
            })
        })
        .collect()
}

/// Determinant of the matrix mod 2^61 − 1.
pub fn det_mod_p61(dim: usize, entries: &[u64]) -> u64 {
    let mut a: Vec<u64> = entries.iter().map(|&e| e % P61).collect();
    let mut det = 1u64;
    for col in 0..dim {
        let Some(piv) = (col..dim).find(|&r| a[r * dim + col] != 0) else {
            return 0;
        };
        if piv != col {
            for c in 0..dim {
                a.swap(piv * dim + c, col * dim + c);
            }
            det = (P61 - det) % P61;
        }
        let p = a[col * dim + col];
        det = mul_mod(det, p);
        let inv = pow_mod(p, P61 - 2);
        for r in col + 1..dim {
            let f = mul_mod(a[r * dim + col], inv);
            if f == 0 {
                continue;
            }
            for c in col..dim {
                let sub = mul_mod(f, a[col * dim + c]);
                a[r * dim + c] = (a[r * dim + c] + P61 - sub) % P61;
            }
        }
    }
    det
}

fn is_singular(dim: usize, k: u32, input: &BitString) -> bool {
    let entries = decode_entries(dim, k, input);
    if det_mod_p61(dim, &entries) != 0 {
        return false;
    }
    let m = ccmx_linalg::Matrix::from_fn(dim, dim, |r, c| {
        ccmx_bigint::Integer::from(entries[r * dim + c])
    });
    ccmx_linalg::bareiss::is_singular(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sing_entries, Rng, SING_K};

    #[test]
    fn det_mod_p_agrees_with_bareiss() {
        let mut rng = Rng::new(1);
        for dim in [1, 2, 5, 9] {
            for singular in [false, true] {
                if singular && dim < 3 {
                    continue;
                }
                let e = sing_entries(&mut rng, dim, singular);
                let m = ccmx_linalg::Matrix::from_fn(dim, dim, |r, c| {
                    ccmx_bigint::Integer::from(e[r * dim + c])
                });
                let det = ccmx_linalg::bareiss::det(&m);
                let p = ccmx_bigint::Integer::from(P61);
                let reduced = det.rem_euclid(&p);
                assert_eq!(reduced.to_string(), det_mod_p61(dim, &e).to_string());
                let bits = crate::gen::encode_matrix(dim, SING_K, &e);
                assert_eq!(decode_entries(dim, SING_K, &bits), e);
            }
        }
    }

    #[test]
    fn wrong_answers_and_errors_are_counted() {
        let oracle = Oracle {
            cc: vec![],
            memo: Mutex::new(HashMap::new()),
        };
        let item = Item {
            req: Request::Ping,
            hint: Hint::None,
            members: vec![],
        };
        assert!(oracle.check(&item, &Response::Pong).ok());
        assert_eq!(
            oracle
                .check(&item, &Response::Singularity { singular: true })
                .wrong,
            1
        );
        assert_eq!(oracle.check(&item, &Response::Error("x".into())).errors, 1);
    }
}
