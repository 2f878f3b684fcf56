//! The statements the benchmark sends, kept as data so the oracle can
//! evaluate them without the engine, and rendered to the SQL dialect.

use crate::data::{Rect, SIDE};
use std::fmt::Write as _;

/// Operation classes reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Filter,
    TopK,
    Agg,
    Pair,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Filter => "filter",
            Class::TopK => "topk",
            Class::Agg => "agg",
            Class::Pair => "pair",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Roi {
    Full,
    Object,
    Rect(Rect),
}

/// A pixel-value range `[lo, hi)` written with two decimals, so the literal
/// is exactly `hundredths / 100` as the dialect parses it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    pub lo: u32,
    pub hi: u32,
}

impl Range {
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo < hi && hi <= 100, "range {lo}..{hi}");
        Self { lo, hi }
    }

    /// The bounds as the `f32` values the literals denote.
    pub fn bounds(&self) -> (f32, f32) {
        (literal_f32(self.lo), literal_f32(self.hi))
    }
}

fn literal(hundredths: u32) -> String {
    format!("{}.{:02}", hundredths / 100, hundredths % 100)
}

/// The `f32` nearest to the decimal literal `hundredths / 100`.
pub fn literal_f32(hundredths: u32) -> f32 {
    literal(hundredths).parse().expect("decimal literal")
}

/// `CP(<mask>, roi, (lo, hi))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cp {
    pub roi: Roi,
    pub range: Range,
}

/// Metadata selection, all conjuncts optional.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sel {
    pub model: Option<u64>,
    pub label: Option<u64>,
    pub images: Option<Vec<u64>>,
}

impl Sel {
    pub fn model(model: u64) -> Self {
        Self {
            model: Some(model),
            ..Self::default()
        }
    }

    fn conjuncts(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(m) = self.model {
            out.push(format!("model_id = {m}"));
        }
        if let Some(l) = self.label {
            out.push(format!("predicted_label = {l}"));
        }
        if let Some(images) = &self.images {
            let list: Vec<String> = images.iter().map(|i| i.to_string()).collect();
            out.push(format!("image_id IN ({})", list.join(", ")));
        }
        out
    }
}

/// Pixelwise composition of an image's model-1 and model-2 masks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compose {
    Intersect,
    Union,
    Diff,
}

impl Compose {
    fn sql(self) -> &'static str {
        match self {
            Compose::Intersect => "INTERSECT",
            Compose::Union => "UNION",
            Compose::Diff => "DIFF",
        }
    }
}

/// A read statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Masks whose `CP > t`.
    Filter { sel: Sel, cp: Cp, t: u64 },
    /// Top-k masks by `CP`.
    TopK {
        sel: Sel,
        cp: Cp,
        k: usize,
        desc: bool,
    },
    /// Top-k images by the mean `CP` of their masks.
    Avg {
        sel: Sel,
        cp: Cp,
        k: usize,
        desc: bool,
    },
    /// Top-k images by `CP` of `INTERSECT(mask > threshold)` (descending).
    Intersect {
        sel: Sel,
        threshold: u32,
        cp: Cp,
        k: usize,
    },
    /// Images whose composed model-1/model-2 pair has `CP > t`.
    PairFilter {
        images: Option<Vec<u64>>,
        op: Compose,
        cp: Cp,
        t: u64,
    },
    /// Top-k images by `CP` of the composed pair.
    PairTopK {
        images: Option<Vec<u64>>,
        op: Compose,
        cp: Cp,
        k: usize,
        desc: bool,
    },
}

fn roi_sql(roi: Roi) -> String {
    match roi {
        Roi::Full => "full".to_string(),
        Roi::Object => "object".to_string(),
        Roi::Rect(r) => format!("({}, {}, {}, {})", r.x0, r.y0, r.x1, r.y1),
    }
}

fn cp_sql(mask: &str, cp: &Cp) -> String {
    format!(
        "CP({mask}, {}, ({}, {}))",
        roi_sql(cp.roi),
        literal(cp.range.lo),
        literal(cp.range.hi)
    )
}

fn where_sql(conjuncts: Vec<String>) -> String {
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

fn order_sql(desc: bool) -> &'static str {
    if desc {
        "DESC"
    } else {
        "ASC"
    }
}

const PAIR_FROM: &str = "FROM masks a JOIN masks b ON a.image_id = b.image_id";

fn pair_conjuncts(images: &Option<Vec<u64>>) -> Vec<String> {
    let mut out = vec!["a.model_id = 1".to_string(), "b.model_id = 2".to_string()];
    if let Some(images) = images {
        let list: Vec<String> = images.iter().map(|i| i.to_string()).collect();
        out.push(format!("image_id IN ({})", list.join(", ")));
    }
    out
}

impl Stmt {
    pub fn class(&self) -> Class {
        match self {
            Stmt::Filter { .. } => Class::Filter,
            Stmt::TopK { .. } => Class::TopK,
            Stmt::Avg { .. } | Stmt::Intersect { .. } => Class::Agg,
            Stmt::PairFilter { .. } | Stmt::PairTopK { .. } => Class::Pair,
        }
    }

    pub fn sql(&self) -> String {
        match self {
            Stmt::Filter { sel, cp, t } => {
                let mut c = vec![format!("{} > {t}", cp_sql("mask", cp))];
                c.extend(sel.conjuncts());
                format!("SELECT mask_id FROM masks{}", where_sql(c))
            }
            Stmt::TopK { sel, cp, k, desc } => format!(
                "SELECT mask_id, {} AS s FROM masks{} ORDER BY s {} LIMIT {k}",
                cp_sql("mask", cp),
                where_sql(sel.conjuncts()),
                order_sql(*desc)
            ),
            Stmt::Avg { sel, cp, k, desc } => format!(
                "SELECT image_id, AVG({}) AS s FROM masks{} GROUP BY image_id ORDER BY s {} LIMIT {k}",
                cp_sql("mask", cp),
                where_sql(sel.conjuncts()),
                order_sql(*desc)
            ),
            Stmt::Intersect {
                sel,
                threshold,
                cp,
                k,
            } => format!(
                "SELECT image_id, {} AS s FROM masks{} GROUP BY image_id ORDER BY s DESC LIMIT {k}",
                cp_sql(&format!("INTERSECT(mask > {})", literal(*threshold)), cp),
                where_sql(sel.conjuncts()),
            ),
            Stmt::PairFilter { images, op, cp, t } => {
                let mut c = pair_conjuncts(images);
                c.push(format!(
                    "{} > {t}",
                    cp_sql(&format!("{}(a.mask, b.mask)", op.sql()), cp)
                ));
                format!("SELECT image_id {PAIR_FROM}{}", where_sql(c))
            }
            Stmt::PairTopK {
                images,
                op,
                cp,
                k,
                desc,
            } => format!(
                "SELECT image_id, {} AS s {PAIR_FROM}{} ORDER BY s {} LIMIT {k}",
                cp_sql(&format!("{}(a.mask, b.mask)", op.sql()), cp),
                where_sql(pair_conjuncts(images)),
                order_sql(*desc)
            ),
        }
    }
}

/// A write statement of the ingest workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// New masks `(mask_id, image_id)` with pixels from
    /// [`crate::data::written_pixels`] at this write's sequence number.
    Insert(Vec<(u64, u64)>),
    /// Re-mask one mask in place.
    Update(u64),
    /// Delete masks.
    Delete(Vec<u64>),
}

/// Renders `INSERT INTO masks VALUES (id, image, w, h, (pixels…)), …`.
pub fn insert_sql(rows: &[(u64, u64, &[u8])], literals: &[String]) -> String {
    let mut sql = String::with_capacity(rows.len() * 100_000);
    sql.push_str("INSERT INTO masks VALUES ");
    for (i, (id, image, pixels)) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        write!(sql, "({id}, {image}, {SIDE}, {SIDE}, (").expect("write to string");
        push_pixels(&mut sql, pixels, literals);
        sql.push_str("))");
    }
    sql
}

/// Renders `UPDATE masks SET pixels = (…) WHERE mask_id = id`.
pub fn update_sql(id: u64, pixels: &[u8], literals: &[String]) -> String {
    let mut sql = String::with_capacity(100_000);
    sql.push_str("UPDATE masks SET pixels = (");
    push_pixels(&mut sql, pixels, literals);
    write!(sql, ") WHERE mask_id = {id}").expect("write to string");
    sql
}

pub fn delete_sql(ids: &[u64]) -> String {
    let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
    format!("DELETE FROM masks WHERE mask_id IN ({})", list.join(", "))
}

fn push_pixels(sql: &mut String, pixels: &[u8], literals: &[String]) {
    for (i, &q) in pixels.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&literals[q as usize]);
    }
}
