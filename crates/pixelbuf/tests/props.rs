//! Property-based tests for framebuffers, geometry and grid sampling.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::{DamageRegion, MAX_DAMAGE_RECTS};
use ccdem_pixelbuf::diff::buffers_equal;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::{GridCompare, GridSampler};
use ccdem_pixelbuf::pixel::{Pixel, PixelFormat};
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_pixelbuf::TILE_SIZE;
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..150, 0u32..150, 0u32..150, 0u32..150).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

/// One arbitrary framebuffer mutation, for exercising the damage
/// accounting across every draw entry point.
#[derive(Debug, Clone, Copy)]
enum DrawOp {
    Touch,
    Fill(u8),
    FillRect(Rect, u8),
    SetPixel(u32, u32, u8),
    Scroll(u32, u8),
}

fn arb_draw_op() -> impl Strategy<Value = DrawOp> {
    prop_oneof![
        Just(DrawOp::Touch),
        any::<u8>().prop_map(DrawOp::Fill),
        (arb_rect(), any::<u8>()).prop_map(|(r, g)| DrawOp::FillRect(r, g)),
        (0u32..64, 0u32..64, any::<u8>()).prop_map(|(x, y, g)| DrawOp::SetPixel(x, y, g)),
        (0u32..70, any::<u8>()).prop_map(|(dy, g)| DrawOp::Scroll(dy, g)),
    ]
}

fn apply(op: DrawOp, fb: &mut FrameBuffer) {
    match op {
        DrawOp::Touch => fb.touch(),
        DrawOp::Fill(g) => fb.fill(Pixel::grey(g)),
        DrawOp::FillRect(r, g) => fb.fill_rect(r, Pixel::grey(g)),
        DrawOp::SetPixel(x, y, g) => {
            let res = fb.resolution();
            fb.set_pixel(x % res.width, y % res.height, Pixel::grey(g));
        }
        DrawOp::Scroll(dy, g) => fb.scroll_up(dy, Pixel::grey(g)),
    }
}

/// A [`DrawOp`] extended with the blit entry points, which need a source
/// buffer and drive the tile-signature inheritance paths.
#[derive(Debug, Clone, Copy)]
enum TileOp {
    Draw(DrawOp),
    CopyFull,
    CopyRect(Rect),
    BlendRect(Rect),
}

fn arb_tile_op() -> impl Strategy<Value = TileOp> {
    prop_oneof![
        arb_draw_op().prop_map(TileOp::Draw),
        arb_draw_op().prop_map(TileOp::Draw),
        arb_draw_op().prop_map(TileOp::Draw),
        Just(TileOp::CopyFull),
        arb_rect().prop_map(TileOp::CopyRect),
        arb_rect().prop_map(TileOp::BlendRect),
    ]
}

fn apply_tile_op(op: TileOp, fb: &mut FrameBuffer, src: &FrameBuffer) {
    match op {
        TileOp::Draw(op) => apply(op, fb),
        TileOp::CopyFull => fb.copy_from(src),
        TileOp::CopyRect(r) => fb.copy_rect_from(src, r),
        TileOp::BlendRect(r) => fb.blend_rect_from(src, r),
    }
}

/// The oracle for the framebuffer's storage: a plain row-major vector
/// holding every pixel, with no tiles, no signatures and no laziness.
#[derive(Debug, Clone)]
struct Model {
    res: Resolution,
    format: PixelFormat,
    px: Vec<Pixel>,
}

impl Model {
    fn new(res: Resolution, format: PixelFormat) -> Model {
        Model {
            res,
            format,
            px: vec![Pixel::BLACK; res.pixel_count()],
        }
    }

    fn points(r: Rect, res: Resolution) -> Vec<usize> {
        let Some(r) = r.clipped_to(res) else {
            return Vec::new();
        };
        let w = res.width as usize;
        (r.y..r.bottom())
            .flat_map(|y| (r.x..r.right()).map(move |x| y as usize * w + x as usize))
            .collect()
    }

    fn fill_rect(&mut self, r: Rect, p: Pixel) {
        let q = self.format.quantize(p);
        for i in Model::points(r, self.res) {
            self.px[i] = q;
        }
    }

    fn scroll_up(&mut self, dy: u32, p: Pixel) {
        let q = self.format.quantize(p);
        let w = self.res.width as usize;
        let shift = dy.min(self.res.height) as usize * w;
        self.px.drain(..shift);
        self.px.resize(self.res.pixel_count(), q);
    }

    fn copy_rect(&mut self, src: &Model, r: Rect) {
        for i in Model::points(r, self.res) {
            self.px[i] = self.format.quantize(src.px[i]);
        }
    }

    fn blend_rect(&mut self, src: &Model, r: Rect) {
        for i in Model::points(r, self.res) {
            self.px[i] = self.format.quantize(src.px[i].over(self.px[i]));
        }
    }
}

/// A few fixed colours (so same-colour writes onto solid tiles happen
/// often) mixed with arbitrary RGBA words.
fn arb_colour() -> impl Strategy<Value = Pixel> {
    prop_oneof![
        (0usize..4).prop_map(|i| {
            [
                Pixel::BLACK,
                Pixel::WHITE,
                Pixel::grey(90),
                Pixel::rgba(200, 120, 7, 128),
            ][i]
        }),
        any::<u32>().prop_map(Pixel::from_bits),
    ]
}

/// A rect of whole tiles. Filled, it makes side-by-side solid tiles of
/// one colour; striped, of two colours; blended, a run of unknown tiles;
/// copied, tiles that take the source's colours. Later partial writes,
/// copies and blends then cross those runs.
fn arb_tile_rect() -> impl Strategy<Value = Rect> {
    (0u32..5, 0u32..5, 1u32..5, 1u32..4).prop_map(|(tx, ty, w, h)| {
        let t = TILE_SIZE;
        Rect::new(tx * t, ty * t, w * t, h * t)
    })
}

/// Every entry point that writes a framebuffer, for the storage oracle.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    Touch,
    Fill(Pixel),
    FillRect(Rect, Pixel),
    SetPixel(u32, u32, Pixel),
    Scroll(u32, Pixel),
    /// Fills the tile columns of a rect alternately with two colours.
    Stripes(Rect, Pixel, Pixel),
    CopyFrom,
    CopyRect(Rect),
    BlendRect(Rect),
    Recycle,
}

fn arb_stripes() -> impl Strategy<Value = StoreOp> {
    (arb_tile_rect(), arb_colour(), arb_colour()).prop_map(|(r, a, b)| StoreOp::Stripes(r, a, b))
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        Just(StoreOp::Touch),
        arb_colour().prop_map(StoreOp::Fill),
        (arb_rect(), arb_colour()).prop_map(|(r, c)| StoreOp::FillRect(r, c)),
        (arb_rect(), arb_colour()).prop_map(|(r, c)| StoreOp::FillRect(r, c)),
        (arb_tile_rect(), arb_colour()).prop_map(|(r, c)| StoreOp::FillRect(r, c)),
        arb_stripes(),
        (0u32..200, 0u32..200, arb_colour()).prop_map(|(x, y, c)| StoreOp::SetPixel(x, y, c)),
        (0u32..160, arb_colour()).prop_map(|(dy, c)| StoreOp::Scroll(dy, c)),
        Just(StoreOp::CopyFrom),
        arb_rect().prop_map(StoreOp::CopyRect),
        arb_rect().prop_map(StoreOp::BlendRect),
        arb_tile_rect().prop_map(StoreOp::CopyRect),
        arb_tile_rect().prop_map(StoreOp::BlendRect),
        Just(StoreOp::Recycle),
    ]
}

/// Applies `op` to both the framebuffer and its model.
fn apply_store_op(
    op: StoreOp,
    fb: &mut FrameBuffer,
    model: &mut Model,
    src: (&FrameBuffer, &Model),
    pool: &mut PixelPool,
) {
    let res = fb.resolution();
    match op {
        StoreOp::Touch => fb.touch(),
        StoreOp::Fill(c) => {
            fb.fill(c);
            model.fill_rect(res.bounds(), c);
        }
        StoreOp::FillRect(r, c) => {
            fb.fill_rect(r, c);
            model.fill_rect(r, c);
        }
        StoreOp::SetPixel(x, y, c) => {
            let (x, y) = (x % res.width, y % res.height);
            fb.set_pixel(x, y, c);
            model.fill_rect(Rect::new(x, y, 1, 1), c);
        }
        StoreOp::Scroll(dy, c) => {
            fb.scroll_up(dy, c);
            model.scroll_up(dy, c);
        }
        StoreOp::Stripes(r, a, b) => {
            let stripes = (r.x..r.right()).step_by(TILE_SIZE as usize);
            for (i, x) in stripes.enumerate() {
                let stripe = Rect::new(x, r.y, TILE_SIZE, r.height);
                let c = if i % 2 == 0 { a } else { b };
                fb.fill_rect(stripe, c);
                model.fill_rect(stripe, c);
            }
        }
        StoreOp::CopyFrom => {
            fb.copy_from(src.0);
            model.copy_rect(src.1, res.bounds());
        }
        StoreOp::CopyRect(r) => {
            fb.copy_rect_from(src.0, r);
            model.copy_rect(src.1, r);
        }
        StoreOp::BlendRect(r) => {
            fb.blend_rect_from(src.0, r);
            model.blend_rect(src.1, r);
        }
        StoreOp::Recycle => {
            let used = std::mem::replace(fb, FrameBuffer::new(Resolution::new(1, 1)));
            pool.give_framebuffer(used);
            *fb = pool.take_framebuffer(res);
            *model = Model::new(res, PixelFormat::Rgba8888);
        }
    }
}

/// Assert the [`DamageRegion`] representation invariants: at most
/// [`MAX_DAMAGE_RECTS`] rects, none empty, and all pairwise disjoint
/// (the cascading re-merge in `add` must have reached a fixpoint).
fn assert_disjoint(region: &DamageRegion) {
    let rects = region.rects();
    assert!(rects.len() <= MAX_DAMAGE_RECTS);
    for (i, a) in rects.iter().enumerate() {
        assert!(!a.is_empty(), "stored empty rect {a:?}");
        for b in &rects[i + 1..] {
            assert_eq!(a.intersection(*b), None, "rects {a:?} and {b:?} overlap");
        }
    }
}

/// One meter step through both gathers from equal snapshots: the tiled
/// gather must return the oracle's verdict, early-exit point and
/// snapshot bytes while reading no more pixels. Returns the oracle's
/// result.
fn gather_both(
    g: &GridSampler,
    fb: &FrameBuffer,
    damage: &DamageRegion,
    last_content_generation: u64,
    tiled_snap: &mut [Pixel],
    oracle_snap: &mut [Pixel],
) -> GridCompare {
    let oracle = g.reference_capture(fb, damage, oracle_snap);
    let tiled = g.compare_and_capture_tiled(fb, damage, last_content_generation, tiled_snap);
    assert_eq!(tiled.grid.differs, oracle.differs);
    assert_eq!(tiled.grid.points_compared, oracle.points_compared);
    assert_eq!(tiled_snap, oracle_snap, "snapshot bytes diverged");
    assert!(tiled.grid.points_read <= oracle.points_read);
    assert!(tiled.tiles_descended <= tiled.tiles_checked);
    oracle
}

proptest! {
    /// Rect intersection is commutative and contained in both operands.
    #[test]
    fn rect_intersection_sound(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        if let Some(i) = a.intersection(b) {
            prop_assert!(i.area() <= a.area());
            prop_assert!(i.area() <= b.area());
            prop_assert!(i.x >= a.x && i.right() <= a.right());
            prop_assert!(i.y >= b.y.min(i.y) && i.bottom() <= b.bottom());
        }
    }

    /// Union contains both operands; intersection (if any) is inside the
    /// union.
    #[test]
    fn rect_union_contains_operands(a in arb_rect(), b in arb_rect()) {
        let u = a.union(b);
        for r in [a, b] {
            if !r.is_empty() {
                prop_assert!(u.contains(r.x, r.y));
                prop_assert!(u.contains(r.right() - 1, r.bottom() - 1));
            }
        }
        if let Some(i) = a.intersection(b) {
            prop_assert_eq!(u.intersection(i), Some(i));
        }
    }

    /// A sampler never exceeds its pixel budget, and all sample
    /// positions are on-screen.
    #[test]
    fn sampler_budget_and_bounds(
        w in 8u32..200,
        h in 8u32..200,
        budget in 1usize..10_000,
    ) {
        let res = Resolution::new(w, h);
        let g = GridSampler::for_pixel_budget(res, budget);
        prop_assert!(g.sample_count() <= budget.max(64).max(g.sample_count().min(budget)));
        prop_assert!(g.sample_count() <= res.pixel_count());
        for (x, y) in g.positions() {
            prop_assert!(res.contains(x, y));
        }
    }

    /// Soundness: if the sampler reports a difference, the buffers truly
    /// differ (no false positives, ever).
    #[test]
    fn sampler_reports_no_false_positives(
        w in 8u32..64,
        h in 8u32..64,
        budget in 1usize..2_000,
        rect in arb_rect(),
        grey in 1u8..255,
    ) {
        let res = Resolution::new(w, h);
        let g = GridSampler::for_pixel_budget(res, budget);
        let everything = DamageRegion::of(res.bounds());
        let before = FrameBuffer::new(res);
        let mut snapshot = g.sample(&before);
        let mut after = before.clone();
        after.fill_rect(rect, Pixel::grey(grey));
        if g.reference_capture(&after, &everything, &mut snapshot).differs {
            prop_assert!(!buffers_equal(&before, &after));
        }
        // And the full sampler is exact in both directions.
        let full = GridSampler::full(res);
        let mut full_snapshot = full.sample(&before);
        prop_assert_eq!(
            full.reference_capture(&after, &everything, &mut full_snapshot).differs,
            !buffers_equal(&before, &after)
        );
    }

    /// Scrolling by the full height (or more) is equivalent to a fill.
    #[test]
    fn full_scroll_equals_fill(h in 1u32..40, dy in 0u32..80, grey in 0u8..=255) {
        let res = Resolution::new(8, h);
        let mut scrolled = FrameBuffer::new(res);
        scrolled.fill(Pixel::grey(77));
        scrolled.scroll_up(dy, Pixel::grey(grey));
        if dy >= h {
            let mut filled = FrameBuffer::new(res);
            filled.fill(Pixel::grey(grey));
            prop_assert!(buffers_equal(&scrolled, &filled));
        } else if dy > 0 {
            // The bottom band is the fill colour.
            prop_assert_eq!(scrolled.pixel(0, h - 1), Pixel::grey(grey));
        }
    }

    /// Satellite 1: after every `add` in an arbitrary sequence, the
    /// damage rects are pairwise disjoint, within capacity, non-empty,
    /// and still cover every rect added so far. Disjointness makes
    /// `area()` an exact (not over-counted) pixel count, which the
    /// sampler relies on when pricing the damage-restricted gather.
    #[test]
    fn damage_add_keeps_rects_disjoint_and_covering(
        rects in proptest::collection::vec(arb_rect(), 1..40),
    ) {
        let mut region = DamageRegion::new();
        for (n, &r) in rects.iter().enumerate() {
            region.add(r);
            assert_disjoint(&region);

            // Coverage: spot-check corners, centre, and edge midpoints
            // of everything added so far.
            for &prev in &rects[..=n] {
                if prev.is_empty() {
                    continue;
                }
                let (x1, y1) = (prev.right() - 1, prev.bottom() - 1);
                let (cx, cy) = (prev.x + prev.width / 2, prev.y + prev.height / 2);
                for (x, y) in [
                    (prev.x, prev.y), (x1, prev.y), (prev.x, y1), (x1, y1),
                    (cx, cy), (cx, prev.y), (cx, y1), (prev.x, cy), (x1, cy),
                ] {
                    prop_assert!(region.contains(x, y), "({}, {}) of {:?} lost", x, y, prev);
                }
            }
        }

        // area() must agree with the ground-truth union now that the
        // rects are disjoint.
        let b = region.bounding();
        let mut true_area = 0u64;
        for y in b.y..b.bottom() {
            for x in b.x..b.right() {
                true_area += u64::from(region.contains(x, y));
            }
        }
        prop_assert_eq!(region.area(), true_area);
    }

    /// The production gather against the oracle. Over arbitrary frames
    /// of draw and blit ops (blits from a second buffer exercise
    /// signature inheritance and quantisation) in both formats, with a
    /// budget and the full sampler, and widths down to 3 px (odd widths
    /// leave a tail after the two-pixel words), the tiled gather returns
    /// the oracle's verdict, `points_compared` and snapshot bytes, and
    /// never reads more pixels. Each frame is gathered under the
    /// buffer's own damage or under whole-screen damage, which is what
    /// `ContentRateMeter::observe` passes. Last, one sampled point is
    /// flipped, and both must stop at exactly its grid index, whether
    /// it lands mid-word or in a word's tail.
    #[test]
    fn tiled_gather_matches_reference_capture(
        w in 3u32..150,
        h in 3u32..150,
        budget in 1usize..2_000,
        dst_565 in any::<bool>(),
        src_ops in proptest::collection::vec(arb_draw_op(), 1..5),
        frames in proptest::collection::vec(
            (proptest::collection::vec(arb_tile_op(), 1..4), any::<bool>()),
            1..12,
        ),
        slot in 0usize..1_000_000,
    ) {
        let res = Resolution::new(w, h);
        let format = if dst_565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let everything = DamageRegion::of(res.bounds());

        let mut src = FrameBuffer::new(res);
        for &op in &src_ops {
            apply(op, &mut src);
        }

        for g in [GridSampler::for_pixel_budget(res, budget), GridSampler::full(res)] {
            let mut fb = FrameBuffer::with_format(res, format);
            let mut tiled_snap = g.sample(&fb);
            let mut oracle_snap = tiled_snap.clone();
            fb.take_damage();
            let mut lcg = fb.content_generation();

            for (ops, whole_screen) in &frames {
                for &op in ops {
                    apply_tile_op(op, &mut fb, &src);
                }
                let own = fb.take_damage();
                let damage = if *whole_screen { &everything } else { &own };
                gather_both(&g, &fb, damage, lcg, &mut tiled_snap, &mut oracle_snap);
                lcg = fb.content_generation();
            }
            prop_assert_eq!(&oracle_snap, &g.sample(&fb));

            let idx = slot % g.sample_count();
            let (px, py) = g.positions().nth(idx).expect("index in range");
            let old = fb.pixel(px, py);
            fb.set_pixel(px, py, Pixel::rgba(old.red() ^ 0x80, old.green(), old.blue(), old.alpha()));
            fb.take_damage();
            let flip = gather_both(&g, &fb, &everything, lcg, &mut tiled_snap, &mut oracle_snap);
            prop_assert!(flip.differs);
            prop_assert_eq!(flip.points_compared, idx + 1);
        }
    }

    /// Damage soundness: every pixel that changed lies inside the
    /// accumulated damage region, and touch never adds damage.
    #[test]
    fn damage_covers_every_changed_pixel(
        ops in proptest::collection::vec(arb_draw_op(), 1..25),
    ) {
        let res = Resolution::new(24, 24);
        let mut fb = FrameBuffer::new(res);
        fb.take_damage();
        let before = fb.clone();
        let mut touched_only = true;
        for op in ops {
            touched_only &= matches!(op, DrawOp::Touch);
            apply(op, &mut fb);
        }
        if touched_only {
            prop_assert!(fb.damage().is_empty(), "touch must never add damage");
        }
        let damage = fb.take_damage();
        for y in 0..res.height {
            for x in 0..res.width {
                if fb.pixel(x, y) != before.pixel(x, y) {
                    prop_assert!(
                        damage.contains(x, y),
                        "changed pixel ({}, {}) outside damage", x, y
                    );
                }
            }
        }
    }

    /// The row-slice blits (`copy_rect_from`, `blend_rect_from`) match a
    /// per-pixel reference built from `pixel`/`set_pixel`, across clipped
    /// rects, both destination formats, and both opaque and translucent
    /// sources.
    #[test]
    fn row_blits_match_per_pixel_reference(
        rect in arb_rect(),
        src_grey in any::<u8>(),
        src_alpha in any::<u8>(),
        dst_grey in any::<u8>(),
        dst_565 in any::<bool>(),
        blend in any::<bool>(),
        patch in arb_rect(),
        patch_grey in any::<u8>(),
    ) {
        let res = Resolution::new(21, 13);
        let mut src = FrameBuffer::new(res);
        src.fill(Pixel::rgba(src_grey, src_grey.wrapping_add(31), src_grey, src_alpha));
        src.fill_rect(patch, Pixel::rgba(patch_grey, patch_grey, patch_grey.wrapping_mul(3), src_alpha ^ 0x55));
        let format = if dst_565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
        let mut dst = FrameBuffer::with_format(res, format);
        dst.fill(Pixel::grey(dst_grey));
        let mut reference = dst.clone();

        if blend {
            dst.blend_rect_from(&src, rect);
        } else {
            dst.copy_rect_from(&src, rect);
        }

        if let Some(r) = rect.clipped_to(res) {
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    let s = src.pixel(x, y);
                    let v = if blend { s.over(reference.pixel(x, y)) } else { s };
                    reference.set_pixel(x, y, v);
                }
            }
        }
        prop_assert!(buffers_equal(&dst, &reference));
    }

    /// The storage oracle: over arbitrary sequences of every write entry
    /// point — solid-tile fills, partial writes that materialize a
    /// tile, scrolls, copies and blends, touches and recycling — applied
    /// to either of two buffers with the other as the blit source, every
    /// pixel of both equals a plain `Vec<Pixel>` model after every op,
    /// through `pixels`, `pixel` and a full-resolution grid gather alike.
    /// Copies in both directions make the buffers share blocks, and the
    /// writes that follow on either side must never reach the other:
    /// a write into a block without a private copy first, or a block put
    /// back on the free list while the other buffer still holds it, makes
    /// a model diverge. Tile-aligned fills, stripes, copies and blends
    /// build side-by-side solid, striped and unknown tiles, and the
    /// arbitrary rects write across them. Buffers in RGBA8888 come from
    /// one pool, so they also share its free list.
    #[test]
    fn framebuffer_matches_plain_vector_model(
        w in 1u32..150,
        h in 1u32..150,
        rgb565 in (any::<bool>(), any::<bool>()),
        // Both buffers start striped, so partial copies often cross
        // side-by-side solid tiles of different colours.
        stripes in proptest::collection::vec((any::<bool>(), arb_stripes()), 0..6),
        ops in proptest::collection::vec((any::<bool>(), arb_store_op()), 1..40),
    ) {
        let res = Resolution::new(w, h);
        let mut pool = PixelPool::new();
        let mut buffer = |rgb565: bool| {
            let format = if rgb565 { PixelFormat::Rgb565 } else { PixelFormat::Rgba8888 };
            let fb = if rgb565 { FrameBuffer::with_format(res, format) } else { pool.take_framebuffer(res) };
            (fb, Model::new(res, format))
        };
        let ((a, a_model), (b, b_model)) = (buffer(rgb565.0), buffer(rgb565.1));
        let (mut bufs, mut models) = ([a, b], [a_model, b_model]);
        let full = GridSampler::full(res);
        for (n, &(side, op)) in stripes.iter().chain(&ops).enumerate() {
            let [a, b] = &mut bufs;
            let [a_model, b_model] = &mut models;
            let (dst, dst_model, src, src_model) = if side {
                (b, b_model, &*a, &*a_model)
            } else {
                (a, a_model, &*b, &*b_model)
            };
            apply_store_op(op, dst, dst_model, (src, src_model), &mut pool);
            for (fb, model) in bufs.iter().zip(&models) {
                prop_assert!(
                    fb.pixels().eq(model.px.iter().copied()),
                    "pixels diverged from the model after op {} ({:?} on side {})", n, op, side
                );
                let x = (n as u32 * 37) % w;
                let y = (n as u32 * 53) % h;
                prop_assert_eq!(fb.pixel(x, y), model.px[(y * w + x) as usize]);
                prop_assert_eq!(&full.sample(fb), &model.px);
            }
        }
    }

    /// Pixel channel round trip through the packed word.
    #[test]
    fn pixel_round_trips(r in any::<u8>(), g in any::<u8>(), b in any::<u8>(), a in any::<u8>()) {
        let p = Pixel::rgba(r, g, b, a);
        prop_assert_eq!((p.red(), p.green(), p.blue(), p.alpha()), (r, g, b, a));
        prop_assert_eq!(Pixel::from_bits(p.to_bits()), p);
    }

    /// Alpha blending stays within channel bounds and is exact at the
    /// extremes.
    #[test]
    fn over_is_bounded(src in any::<u32>(), dst in any::<u32>()) {
        let s = Pixel::from_bits(src);
        let d = Pixel::from_bits(dst | 0xFF00_0000);
        let o = s.over(d);
        prop_assert_eq!(o.alpha(), 255);
        for (ch, (a, b)) in [
            (o.red(), (s.red(), d.red())),
            (o.green(), (s.green(), d.green())),
            (o.blue(), (s.blue(), d.blue())),
        ] {
            prop_assert!(ch >= a.min(b).saturating_sub(1));
            prop_assert!(ch <= a.max(b).saturating_add(1));
        }
    }
}
