//! Expected answers, computed from the benchmark's own copy of the pixels
//! and the dialect's documented semantics — never through the engine's
//! core or index crates.
//!
//! * `CP(mask, roi, (lo, hi))` counts the pixels of the ROI whose value `v`
//!   satisfies `lo <= v < hi`; `object` is the mask's object box (the whole
//!   mask when it has none), `full` the whole mask.
//! * Ranked results order by value, ties broken by ascending key.
//! * `AVG` is the mean of the group members' counts.
//! * `INTERSECT(mask > t)` is high (the maximum pixel value) where every
//!   member of the group is at least `t`, and 0 elsewhere.
//! * Pair compositions are pixelwise `min` / `max` / `|a − b|` of an image's
//!   model-1 and model-2 masks.

use crate::data::{value, MaskRow, Meta, Rect, State, LEVELS, SIDE};
use crate::spec::{Compose, Cp, Range, Roi, Sel, Stmt};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A result row key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    Mask(u64),
    Image(u64),
}

/// One result row: its key and, for ranked queries, its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub key: Key,
    pub value: Option<f64>,
}

/// The value of a "high" pixel of a thresholded mask (the maximum pixel
/// value, `1 − ε`).
const HIGH: f32 = 1.0 - f32::EPSILON;

type Lut = [bool; LEVELS as usize];

fn lut(range: Range) -> Lut {
    let (lo, hi) = range.bounds();
    let mut table = [false; LEVELS as usize];
    for (q, slot) in table.iter_mut().enumerate() {
        let v = value(q as u8);
        *slot = lo <= v && v < hi;
    }
    table
}

fn resolve(roi: Roi, meta: &Meta) -> Rect {
    match roi {
        Roi::Full => Rect::full(),
        Roi::Object => meta.object_box.unwrap_or_else(Rect::full),
        Roi::Rect(r) => Rect {
            x0: r.x0.min(SIDE),
            y0: r.y0.min(SIDE),
            x1: r.x1.min(SIDE),
            y1: r.y1.min(SIDE),
        },
    }
}

fn count(pixels: &[u8], rect: Rect, table: &Lut) -> u64 {
    let mut n = 0u64;
    for y in rect.y0..rect.y1 {
        let row = &pixels[(y * SIDE) as usize..((y + 1) * SIDE) as usize];
        for &q in &row[rect.x0 as usize..rect.x1 as usize] {
            n += table[q as usize] as u64;
        }
    }
    n
}

/// `CP` of one mask.
pub fn cp(mask: &MaskRow, cp: &Cp) -> u64 {
    count(&mask.pixels, resolve(cp.roi, &mask.meta), &lut(cp.range))
}

fn selected(sel: &Sel, meta: &Meta) -> bool {
    sel.model.is_none_or(|m| meta.model_id == m)
        && sel.label.is_none_or(|l| meta.predicted_label == Some(l))
        && sel
            .images
            .as_ref()
            .is_none_or(|images| images.binary_search(&meta.image_id).is_ok())
}

/// Sorts by value under the order, ties by ascending key, keeps `k`.
fn rank(mut rows: Vec<Row>, k: usize, desc: bool) -> Vec<Row> {
    rows.sort_by(|a, b| {
        let (va, vb) = (a.value.unwrap_or(0.0), b.value.unwrap_or(0.0));
        let by_value = if desc {
            vb.partial_cmp(&va)
        } else {
            va.partial_cmp(&vb)
        };
        by_value
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.key.cmp(&b.key))
    });
    rows.truncate(k);
    rows
}

fn groups<'a>(state: &'a State, sel: &Sel) -> BTreeMap<u64, Vec<&'a MaskRow>> {
    let mut out: BTreeMap<u64, Vec<&MaskRow>> = BTreeMap::new();
    for mask in state.values().filter(|m| selected(sel, &m.meta)) {
        out.entry(mask.meta.image_id).or_default().push(mask);
    }
    out
}

/// Images with both a model-1 and a model-2 mask: `(image, a, b)`.
fn pairs<'a>(state: &'a State, images: &Option<Vec<u64>>) -> Vec<(u64, &'a MaskRow, &'a MaskRow)> {
    let sel = Sel {
        images: images.clone(),
        ..Sel::default()
    };
    groups(state, &sel)
        .into_iter()
        .filter_map(|(image, members)| {
            let a = members.iter().find(|m| m.meta.model_id == 1)?;
            let b = members.iter().find(|m| m.meta.model_id == 2)?;
            Some((image, *a, *b))
        })
        .collect()
}

/// `CP` of the pixelwise composition of two masks (ROI from `a`).
pub fn pair_cp(a: &MaskRow, b: &MaskRow, op: Compose, cp: &Cp) -> u64 {
    let rect = resolve(cp.roi, &a.meta);
    let (lo, hi) = cp.range.bounds();
    let mut n = 0u64;
    for y in rect.y0..rect.y1 {
        for x in rect.x0..rect.x1 {
            let i = (y * SIDE + x) as usize;
            let (va, vb) = (value(a.pixels[i]), value(b.pixels[i]));
            let v = match op {
                Compose::Intersect => va.min(vb),
                Compose::Union => va.max(vb),
                Compose::Diff => (va - vb).abs(),
            };
            n += (lo <= v && v < hi) as u64;
        }
    }
    n
}

fn intersect_cp(members: &[&MaskRow], threshold: f32, cp: &Cp) -> u64 {
    let rect = resolve(cp.roi, &members[0].meta);
    let (lo, hi) = cp.range.bounds();
    let (high_in, zero_in) = (lo <= HIGH && HIGH < hi, lo <= 0.0 && 0.0 < hi);
    let mut n = 0u64;
    for y in rect.y0..rect.y1 {
        for x in rect.x0..rect.x1 {
            let i = (y * SIDE + x) as usize;
            let high = members.iter().all(|m| value(m.pixels[i]) >= threshold);
            n += if high { high_in } else { zero_in } as u64;
        }
    }
    n
}

/// The expected rows of a statement over a state.
pub fn evaluate(stmt: &Stmt, state: &State) -> Vec<Row> {
    match stmt {
        Stmt::Filter { sel, cp: term, t } => state
            .iter()
            .filter(|(_, m)| selected(sel, &m.meta) && cp(m, term) > *t)
            .map(|(&id, _)| Row {
                key: Key::Mask(id),
                value: None,
            })
            .collect(),
        Stmt::TopK {
            sel,
            cp: term,
            k,
            desc,
        } => {
            let rows = state
                .iter()
                .filter(|(_, m)| selected(sel, &m.meta))
                .map(|(&id, m)| Row {
                    key: Key::Mask(id),
                    value: Some(cp(m, term) as f64),
                })
                .collect();
            rank(rows, *k, *desc)
        }
        Stmt::Avg {
            sel,
            cp: term,
            k,
            desc,
        } => {
            let rows = groups(state, sel)
                .into_iter()
                .map(|(image, members)| {
                    let sum: u64 = members.iter().map(|m| cp(m, term)).sum();
                    Row {
                        key: Key::Image(image),
                        value: Some(sum as f64 / members.len() as f64),
                    }
                })
                .collect();
            rank(rows, *k, *desc)
        }
        Stmt::Intersect {
            sel,
            threshold,
            cp: term,
            k,
        } => {
            let threshold = crate::spec::literal_f32(*threshold);
            let rows = groups(state, sel)
                .into_iter()
                .map(|(image, members)| Row {
                    key: Key::Image(image),
                    value: Some(intersect_cp(&members, threshold, term) as f64),
                })
                .collect();
            rank(rows, *k, true)
        }
        Stmt::PairFilter {
            images,
            op,
            cp: term,
            t,
        } => pairs(state, images)
            .into_iter()
            .filter(|(_, a, b)| pair_cp(a, b, *op, term) > *t)
            .map(|(image, _, _)| Row {
                key: Key::Image(image),
                value: None,
            })
            .collect(),
        Stmt::PairTopK {
            images,
            op,
            cp: term,
            k,
            desc,
        } => {
            let rows = pairs(state, images)
                .into_iter()
                .map(|(image, a, b)| Row {
                    key: Key::Image(image),
                    value: Some(pair_cp(a, b, *op, term) as f64),
                })
                .collect();
            rank(rows, *k, *desc)
        }
    }
}

/// Memo of one statement's per-mask `CP` values. An entry keeps the pixels
/// it was computed from alive, so a re-masked mask (new pixels) misses.
pub type CpMemo = HashMap<u64, (Arc<Vec<u8>>, u64)>;

/// Per-mask `CP` values of a single-mask statement's selected masks in one
/// state: what a read racing writes may observe mask by mask.
pub fn mask_values(stmt: &Stmt, state: &State, memo: &mut CpMemo) -> BTreeMap<u64, u64> {
    let (sel, term) = match stmt {
        Stmt::Filter { sel, cp, .. } | Stmt::TopK { sel, cp, .. } => (sel, cp),
        _ => panic!("per-mask values exist only for filter and top-k statements"),
    };
    state
        .iter()
        .filter(|(_, m)| selected(sel, &m.meta))
        .map(|(&id, m)| {
            let value = match memo.get(&id) {
                Some((pixels, v)) if Arc::ptr_eq(pixels, &m.pixels) => *v,
                _ => {
                    let v = cp(m, term);
                    memo.insert(id, (Arc::clone(&m.pixels), v));
                    v
                }
            };
            (id, value)
        })
        .collect()
}

/// Checks a filter or top-k answer against the states a read may have
/// observed (one map per state, from [`mask_values`]). The engine resolves
/// the candidates under one catalog snapshot, so the masks the answer
/// accounts for — whole `INSERT` and `DELETE` batches — must be those of a
/// single state in the window. It loads each candidate's pixels as
/// committed when it loads them, so a mask re-masked within the window may
/// show the value it has in any state of the window.
pub fn check_window(stmt: &Stmt, states: &[BTreeMap<u64, u64>], got: &[Row]) -> bool {
    let mut returned = BTreeMap::new();
    for row in got {
        let Key::Mask(id) = row.key else { return false };
        if returned.insert(id, row.value).is_some() {
            return false;
        }
    }
    let well_formed = match stmt {
        Stmt::Filter { .. } => {
            got.windows(2).all(|w| w[0].key < w[1].key) && got.iter().all(|r| r.value.is_none())
        }
        Stmt::TopK { k, desc, .. } => {
            got.len() <= *k
                && got.iter().all(|r| r.value.is_some())
                && rank(got.to_vec(), *k, *desc) == got
        }
        _ => panic!("window checks exist only for filter and top-k statements"),
    };
    // The values mask `id` has in the states of the window.
    let values = |id: u64| states.iter().filter_map(move |s| s.get(&id).copied());
    well_formed
        && states.iter().any(|live| {
            returned.keys().all(|id| live.contains_key(id))
                && live.keys().all(|&id| match stmt {
                    Stmt::Filter { t, .. } => {
                        let is_returned = returned.contains_key(&id);
                        values(id).any(|v| (v > *t) == is_returned)
                    }
                    Stmt::TopK { k, desc, .. } => match returned.get(&id) {
                        Some(value) => values(id).any(|v| Some(v as f64) == *value),
                        None => {
                            got.len() == *k && values(id).any(|v| ranks_after(got, *desc, id, v))
                        }
                    },
                    _ => unreachable!("checked above"),
                })
        })
}

/// Whether a mask with value `v` ranks after the last row of a top-k answer.
fn ranks_after(got: &[Row], desc: bool, id: u64, v: u64) -> bool {
    match got.last() {
        Some(&Row {
            key: Key::Mask(last_id),
            value: Some(last_v),
        }) => {
            let v = v as f64;
            if v == last_v {
                id > last_id
            } else if desc {
                v < last_v
            } else {
                v > last_v
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{base_dataset, Rect};
    use crate::spec::{Cp, Range, Roi, Sel, Stmt};

    fn state() -> State {
        base_dataset(7, 12)
    }

    fn topk() -> Stmt {
        Stmt::TopK {
            sel: Sel::model(1),
            cp: Cp {
                roi: Roi::Rect(Rect {
                    x0: 10,
                    y0: 10,
                    x1: 90,
                    y1: 80,
                }),
                range: Range::new(35, 90),
            },
            k: 5,
            desc: true,
        }
    }

    #[test]
    fn window_check_accepts_the_oracle_answer_and_rejects_a_corrupted_row() {
        let state = state();
        let stmt = topk();
        let expected = evaluate(&stmt, &state);
        let values = [mask_values(&stmt, &state, &mut CpMemo::new())];
        assert!(check_window(&stmt, &values, &expected));
        let mut corrupted = expected.clone();
        corrupted[2].value = corrupted[2].value.map(|v| v + 1.0);
        assert!(!check_window(&stmt, &values, &corrupted));
    }

    #[test]
    fn filter_window_accepts_either_side_of_a_racing_write() {
        let before = state();
        let mut after = before.clone();
        after.remove(&0);
        let stmt = Stmt::Filter {
            sel: Sel::default(),
            cp: Cp {
                roi: Roi::Full,
                range: Range::new(0, 100),
            },
            t: 0,
        };
        let mut memo = CpMemo::new();
        let window = [
            mask_values(&stmt, &before, &mut memo),
            mask_values(&stmt, &after, &mut memo),
        ];
        assert!(check_window(&stmt, &window, &evaluate(&stmt, &before)));
        assert!(check_window(&stmt, &window, &evaluate(&stmt, &after)));
        let mut missing_live = evaluate(&stmt, &before);
        missing_live.remove(1);
        assert!(!check_window(&stmt, &window, &missing_live));
    }

    #[test]
    fn window_rejects_half_of_a_batch() {
        let before = state();
        let mut after = before.clone();
        // One statement inserts masks 100 and 101 together.
        for (id, source) in [(100, 0), (101, 1)] {
            let row = before[&source].clone();
            after.insert(id, row);
        }
        let stmt = Stmt::Filter {
            sel: Sel::default(),
            cp: Cp {
                roi: Roi::Full,
                range: Range::new(0, 100),
            },
            t: 0,
        };
        let mut memo = CpMemo::new();
        let window = [
            mask_values(&stmt, &before, &mut memo),
            mask_values(&stmt, &after, &mut memo),
        ];
        assert!(check_window(&stmt, &window, &evaluate(&stmt, &after)));
        let half: Vec<Row> = evaluate(&stmt, &after)
            .into_iter()
            .filter(|r| r.key != Key::Mask(101))
            .collect();
        assert!(!check_window(&stmt, &window, &half));
    }
}
