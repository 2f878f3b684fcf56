//! Statement mixes. Each workload sends the same statement templates for
//! every seed; the seed picks the data, the labels and image slices, and
//! thresholds sit at fixed quantiles of the seeded data's `CP` values, so
//! the cost of a mix hardly depends on the seed.

use crate::data::{self, MaskRow, Rect, Rng, State, SIDE};
use crate::oracle;
use crate::spec::{Compose, Cp, Range, Roi, Sel, Stmt};
use crate::stats::quantile;

/// Ranges on CHI bin edges (multiples of 1/16 in hundredths are 25, 50, 75
/// and 100) or on the paper's round values.
const ALIGNED: [(u32, u32); 8] = [
    (50, 100),
    (60, 100),
    (70, 100),
    (80, 100),
    (90, 100),
    (30, 70),
    (40, 80),
    (20, 60),
];

/// Ranges whose bounds fall inside CHI bins, so the bounds stay loose.
const UNALIGNED: [(u32, u32); 8] = [
    (33, 71),
    (47, 83),
    (58, 97),
    (27, 64),
    (38, 91),
    (53, 77),
    (41, 69),
    (62, 99),
];

/// Q1's box: the paper's ((50, 50), (200, 200)) on 224 pixels, scaled.
const Q1_RECT: Rect = Rect {
    x0: 24,
    y0: 24,
    x1: 99,
    y1: 99,
};

const RECTS: [Rect; 4] = [
    Q1_RECT,
    Rect {
        x0: 28,
        y0: 28,
        x1: 84,
        y1: 84,
    },
    Rect {
        x0: 0,
        y0: 0,
        x1: 56,
        y1: SIDE,
    },
    Rect {
        x0: 0,
        y0: 20,
        x1: SIDE,
        y1: 60,
    },
];

/// Pass fractions the filter thresholds aim at.
const LEVELS: [f64; 3] = [0.5, 0.8, 0.95];

fn range(table: &[(u32, u32)], i: usize) -> Range {
    let (lo, hi) = table[i % table.len()];
    Range::new(lo, hi)
}

/// The paper's Q1–Q5 at 112×112 (box and thresholds scaled as in the
/// repository's figure benchmarks).
fn paper_queries() -> Vec<Stmt> {
    let area = (SIDE * SIDE) as u64;
    let high = Range::new(80, 100);
    let object = Cp {
        roi: Roi::Object,
        range: high,
    };
    vec![
        Stmt::Filter {
            sel: Sel::model(1),
            cp: Cp {
                roi: Roi::Rect(Q1_RECT),
                range: Range::new(60, 100),
            },
            t: area / 10,
        },
        Stmt::Filter {
            sel: Sel::model(1),
            cp: object,
            t: area / 40,
        },
        Stmt::TopK {
            sel: Sel::model(1),
            cp: Cp {
                roi: Roi::Rect(Q1_RECT),
                range: high,
            },
            k: 25,
            desc: true,
        },
        Stmt::Avg {
            sel: Sel::default(),
            cp: object,
            k: 25,
            desc: true,
        },
        Stmt::Intersect {
            sel: Sel::default(),
            threshold: 80,
            cp: object,
            k: 25,
        },
    ]
}

/// A `CP` threshold that a fraction `level` of a sample of the masks
/// (model-1/model-2 pairs when `pair` is set) does not exceed.
fn threshold(state: &State, cp: &Cp, pair: Option<Compose>, level: f64, rng: &mut Rng) -> u64 {
    let masks: Vec<&MaskRow> = state.values().filter(|m| m.meta.model_id == 1).collect();
    let counts: Vec<f64> = (0..64)
        .map(|_| {
            let a = masks[rng.below(0, masks.len() as u64) as usize];
            let count = match pair {
                None => oracle::cp(a, cp),
                Some(op) => {
                    let b = &state[&(2 * a.meta.image_id + 1)];
                    oracle::pair_cp(a, b, op, cp)
                }
            };
            count as f64
        })
        .collect();
    quantile(&counts, level) as u64
}

/// Interactive exploration: Q1–Q5, then fig11-style filter, top-k and
/// aggregation templates, a predicted-label filter the posting-list index
/// serves, and model-1/model-2 pair comparisons.
pub fn explore(rng: &mut Rng, state: &State, n: usize) -> Vec<Stmt> {
    let mut out = paper_queries();
    for i in 0..n.saturating_sub(out.len()) {
        let j = i / 9;
        let desc = j % 2 == 0;
        out.push(match i % 9 {
            0 | 1 => {
                let cp = Cp {
                    roi: Roi::Object,
                    range: range(&ALIGNED, j + i % 9),
                };
                let t = threshold(state, &cp, None, LEVELS[j % 3], rng);
                Stmt::Filter {
                    sel: Sel::default(),
                    cp,
                    t,
                }
            }
            2 => {
                let cp = Cp {
                    roi: Roi::Full,
                    range: range(&ALIGNED, j),
                };
                let t = threshold(state, &cp, None, LEVELS[j % 3], rng);
                Stmt::Filter {
                    sel: Sel {
                        label: Some(rng.below(0, data::CLASSES)),
                        ..Sel::default()
                    },
                    cp,
                    t,
                }
            }
            3 | 4 => Stmt::TopK {
                sel: Sel::default(),
                cp: Cp {
                    roi: Roi::Rect(RECTS[(j + i % 9) % RECTS.len()]),
                    range: range(&ALIGNED, j),
                },
                k: 25,
                desc: i % 9 == 3,
            },
            5 => Stmt::Avg {
                sel: Sel::default(),
                cp: Cp {
                    roi: Roi::Object,
                    range: range(&ALIGNED, j),
                },
                k: 25,
                desc,
            },
            6 => {
                let t = [50, 60, 70, 80, 90][j % 5];
                Stmt::Intersect {
                    sel: Sel::default(),
                    threshold: t,
                    cp: Cp {
                        roi: Roi::Object,
                        range: Range::new(t, 100),
                    },
                    k: 25,
                }
            }
            7 => {
                let cp = Cp {
                    roi: Roi::Full,
                    range: Range::new([30, 40, 50][j % 3], 100),
                };
                let t = threshold(state, &cp, Some(Compose::Diff), LEVELS[j % 3], rng);
                Stmt::PairFilter {
                    images: None,
                    op: Compose::Diff,
                    cp,
                    t,
                }
            }
            _ => Stmt::PairTopK {
                images: None,
                op: Compose::Intersect,
                cp: Cp {
                    roi: Roi::Rect(RECTS[j % RECTS.len()]),
                    range: range(&ALIGNED, j),
                },
                k: 20,
                desc,
            },
        });
    }
    out
}

/// Images an audit statement covers: a seeded slice of the dataset, so
/// successive statements touch different masks.
const AUDIT_SLICE: usize = 12;

fn slice(rng: &mut Rng, images: u64, n: usize) -> Vec<u64> {
    let mut out: Vec<u64> = (0..n).map(|_| rng.below(0, images)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Auditing: the Q1/Q2/Q3/Q4 shapes and pair comparisons over image slices,
/// with ranges off the CHI bin edges and filter thresholds at the median
/// count, so bounds leave most candidates undecided and masks get loaded.
pub fn audit(rng: &mut Rng, state: &State, images: u64, n: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    for i in 0..n {
        let j = i / 6;
        let desc = j % 2 == 0;
        let range = range(&UNALIGNED, j + i % 6);
        let images = slice(rng, images, AUDIT_SLICE);
        let sel = Sel {
            images: Some(images.clone()),
            ..Sel::default()
        };
        out.push(match i % 6 {
            0 | 1 => {
                let cp = Cp {
                    roi: if i % 6 == 0 {
                        Roi::Object
                    } else {
                        Roi::Rect(Q1_RECT)
                    },
                    range,
                };
                let t = threshold(state, &cp, None, 0.5, rng);
                Stmt::Filter { sel, cp, t }
            }
            2 => Stmt::TopK {
                sel,
                cp: Cp {
                    roi: Roi::Rect(RECTS[j % RECTS.len()]),
                    range,
                },
                k: 25,
                desc,
            },
            3 => Stmt::Avg {
                sel,
                cp: Cp {
                    roi: Roi::Object,
                    range,
                },
                k: 25,
                desc,
            },
            4 => {
                let cp = Cp {
                    roi: Roi::Full,
                    range,
                };
                let t = threshold(state, &cp, Some(Compose::Diff), 0.5, rng);
                Stmt::PairFilter {
                    images: Some(images),
                    op: Compose::Diff,
                    cp,
                    t,
                }
            }
            _ => Stmt::PairTopK {
                images: Some(images),
                op: Compose::Union,
                cp: Cp {
                    roi: Roi::Rect(RECTS[j % RECTS.len()]),
                    range,
                },
                k: 20,
                desc,
            },
        });
    }
    out
}

/// Inserted images readers select from: about what the writer inserts in
/// a 15 s run on the reference machine (see `drive::WritePlan`), so reads
/// keep meeting newly inserted, re-masked and deleted masks throughout.
const INSERT_REGION: u64 = 1536;

/// Image ids half from the base images and half from the region the
/// writer inserts into.
fn moving_images(rng: &mut Rng, base: u64, n: usize) -> Vec<u64> {
    let mut images: Vec<u64> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                rng.below(0, base)
            } else {
                base + rng.below(0, INSERT_REGION)
            }
        })
        .collect();
    images.sort_unstable();
    images.dedup();
    images
}

/// Reads beside the writer: selective filters and top-k over image lists
/// that include masks being inserted, re-masked and deleted, and
/// aggregations and pair comparisons over base images the writer leaves
/// alone.
pub fn ingest(rng: &mut Rng, state: &State, base: u64, n: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    for i in 0..n {
        let j = i / 6;
        let desc = j % 2 == 0;
        let range = range(&ALIGNED, j + i % 6);
        let moving = Sel {
            images: Some(moving_images(rng, base, 192)),
            ..Sel::default()
        };
        let fixed = Some(slice(rng, base, 96));
        out.push(match i % 6 {
            0 | 1 => {
                let cp = Cp {
                    roi: if i % 2 == 0 { Roi::Object } else { Roi::Full },
                    range,
                };
                let t = threshold(state, &cp, None, LEVELS[j % 3], rng);
                Stmt::Filter { sel: moving, cp, t }
            }
            2 | 3 => Stmt::TopK {
                sel: moving,
                cp: Cp {
                    roi: Roi::Rect(RECTS[(j + i % 6) % RECTS.len()]),
                    range,
                },
                k: 10,
                desc,
            },
            4 => Stmt::Avg {
                sel: Sel {
                    images: fixed,
                    ..Sel::default()
                },
                cp: Cp {
                    roi: Roi::Object,
                    range,
                },
                k: 5,
                desc,
            },
            _ => Stmt::PairTopK {
                images: fixed,
                op: Compose::Diff,
                cp: Cp {
                    roi: Roi::Full,
                    range,
                },
                k: 5,
                desc,
            },
        });
    }
    out
}

/// Whether an ingest-workload statement reads masks the writer changes.
pub fn reads_writes(stmt: &Stmt) -> bool {
    matches!(stmt, Stmt::Filter { .. } | Stmt::TopK { .. })
}
