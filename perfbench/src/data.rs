//! Seeded input generation: WILDS-like saliency masks and their metadata.
//!
//! Pixels are kept as quanta `q ∈ 0..128` meaning the value `q / 128`. Every
//! such value is exact in `f32` and `f64` and has a short exact decimal
//! spelling, so a mask sent as SQL pixel literals arrives bit-identical, and
//! the oracle can hold masks at one byte per pixel.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Mask side (the WILDS-like dataset at 1/4 of the paper's 448 pixels).
pub const SIDE: u32 = 112;
/// Pixels per mask.
pub const PIXELS: usize = (SIDE * SIDE) as usize;
/// Quantization levels per unit of pixel value.
pub const LEVELS: u32 = 128;
/// Number of predicted-label classes (WILDS iWildCam has 182).
pub const CLASSES: u64 = 182;

/// The pixel value of quantum `q`.
pub fn value(q: u8) -> f32 {
    q as f32 / LEVELS as f32
}

/// Decimal spellings of every quantum, checked to parse back exactly.
pub fn pixel_literals() -> Vec<String> {
    (0..LEVELS as u8)
        .map(|q| {
            let text = format!("{}", value(q) as f64);
            assert_eq!(text.parse::<f32>().ok(), Some(value(q)), "literal {text}");
            text
        })
        .collect()
}

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// A generator for one named stream of a seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (requires `lo < hi`).
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn range_f(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A half-open pixel rectangle `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    pub x0: u32,
    pub y0: u32,
    pub x1: u32,
    pub y1: u32,
}

impl Rect {
    pub fn full() -> Self {
        Self {
            x0: 0,
            y0: 0,
            x1: SIDE,
            y1: SIDE,
        }
    }
}

/// Metadata of one mask, as the benchmark knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    pub image_id: u64,
    /// 0 for masks inserted over SQL (the `INSERT` tuple carries no model).
    pub model_id: u64,
    pub predicted_label: Option<u64>,
    pub object_box: Option<Rect>,
}

/// One mask: metadata plus quantized pixels (row-major).
#[derive(Debug, Clone)]
pub struct MaskRow {
    pub meta: Meta,
    pub pixels: Arc<Vec<u8>>,
}

/// The benchmark's own copy of a database state: mask id → mask.
pub type State = BTreeMap<u64, MaskRow>;

/// A random foreground-object box covering 15–45 % of each side.
pub fn object_box(rng: &mut Rng) -> Rect {
    let lo = SIDE as u64 * 15 / 100;
    let hi = SIDE as u64 * 45 / 100;
    let bw = rng.below(lo, hi + 1) as u32;
    let bh = rng.below(lo, hi + 1) as u32;
    let x0 = rng.below(0, (SIDE - bw) as u64 + 1) as u32;
    let y0 = rng.below(0, (SIDE - bh) as u64 + 1) as u32;
    Rect {
        x0,
        y0,
        x1: x0 + bw,
        y1: y0 + bh,
    }
}

/// A saliency map: a primary Gaussian blob on the object (with probability
/// `focus`) or at a random spot, two weaker secondary blobs, and uniform
/// background noise, clamped below 1 and quantized.
pub fn saliency(rng: &mut Rng, object: Rect, focus: f64) -> Vec<u8> {
    let side = SIDE as f64;
    let (cx, cy) = if rng.unit() < focus {
        (
            (object.x0 + object.x1) as f64 / 2.0 + rng.range_f(-2.0, 2.0),
            (object.y0 + object.y1) as f64 / 2.0 + rng.range_f(-2.0, 2.0),
        )
    } else {
        (rng.range_f(0.0, side), rng.range_f(0.0, side))
    };
    let sigma = side * 0.12;
    let mut blobs = vec![(cx, cy, sigma, 0.95)];
    for _ in 0..2 {
        blobs.push((
            rng.range_f(0.0, side),
            rng.range_f(0.0, side),
            sigma * rng.range_f(0.5, 1.2),
            0.95 * rng.range_f(0.2, 0.55),
        ));
    }
    let mut pixels = Vec::with_capacity(PIXELS);
    for y in 0..SIDE {
        for x in 0..SIDE {
            let mut v = rng.range_f(0.0, 0.08);
            for &(bx, by, s, amp) in &blobs {
                let dx = x as f64 - bx;
                let dy = y as f64 - by;
                v += amp * (-(dx * dx + dy * dy) / (2.0 * s * s)).exp();
            }
            let q = (v * LEVELS as f64).floor().clamp(0.0, (LEVELS - 1) as f64);
            pixels.push(q as u8);
        }
    }
    pixels
}

/// The base dataset: `images` images with two models' masks each. Mask ids
/// are `2 * image + model - 1`; model 1 focuses on the object with
/// probability 0.65 (the WILDS-like setting), model 2 with 0.5.
pub fn base_dataset(seed: u64, images: u64) -> State {
    let mut rng = Rng::stream(seed, 1);
    let mut state = State::new();
    for image in 0..images {
        let object = object_box(&mut rng);
        let true_label = rng.below(0, CLASSES);
        for model in 1..=2u64 {
            let focus = if model == 1 { 0.65 } else { 0.5 };
            let pixels = saliency(&mut rng, object, focus);
            let correct = if model == 1 { 0.9 } else { 0.6 };
            let predicted = if rng.unit() < correct {
                true_label
            } else {
                rng.below(0, CLASSES)
            };
            state.insert(
                2 * image + model - 1,
                MaskRow {
                    meta: Meta {
                        image_id: image,
                        model_id: model,
                        predicted_label: Some(predicted),
                        object_box: Some(object),
                    },
                    pixels: Arc::new(pixels),
                },
            );
        }
    }
    state
}

/// Pixels for a mask written by the ingest workload: a deterministic
/// function of the seed, the mask id and the write's sequence number.
pub fn written_pixels(seed: u64, mask_id: u64, version: u64) -> Vec<u8> {
    let mut rng = Rng::stream(seed ^ mask_id.rotate_left(20), 1000 + version);
    let object = object_box(&mut rng);
    saliency(&mut rng, object, 0.6)
}
