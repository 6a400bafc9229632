//! Pixel values and formats.

use std::fmt;

/// A 32-bit RGBA pixel (8 bits per channel, `0xAARRGGBB` layout).
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let p = Pixel::rgb(255, 128, 0);
/// assert_eq!(p.red(), 255);
/// assert_eq!(p.green(), 128);
/// assert_eq!(p.blue(), 0);
/// assert_eq!(p.alpha(), 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Pixel(u32);

impl Pixel {
    /// Fully transparent black.
    pub const TRANSPARENT: Pixel = Pixel(0);
    /// Opaque black.
    pub const BLACK: Pixel = Pixel(0xFF00_0000);
    /// Opaque white.
    pub const WHITE: Pixel = Pixel(0xFFFF_FFFF);

    /// Creates an opaque pixel from RGB channels.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Pixel {
        Pixel::rgba(r, g, b, 0xFF)
    }

    /// Creates a pixel from RGBA channels.
    pub const fn rgba(r: u8, g: u8, b: u8, a: u8) -> Pixel {
        Pixel(((a as u32) << 24) | ((r as u32) << 16) | ((g as u32) << 8) | b as u32)
    }

    /// Creates an opaque grey pixel.
    pub const fn grey(v: u8) -> Pixel {
        Pixel::rgb(v, v, v)
    }

    /// The raw `0xAARRGGBB` word.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Reconstructs a pixel from its raw word.
    pub const fn from_bits(bits: u32) -> Pixel {
        Pixel(bits)
    }

    /// Red channel.
    pub const fn red(self) -> u8 {
        (self.0 >> 16) as u8
    }

    /// Green channel.
    pub const fn green(self) -> u8 {
        (self.0 >> 8) as u8
    }

    /// Blue channel.
    pub const fn blue(self) -> u8 {
        self.0 as u8
    }

    /// Alpha channel.
    pub const fn alpha(self) -> u8 {
        (self.0 >> 24) as u8
    }

    /// Relative luminance in `[0, 1]` (Rec. 709 weights).
    ///
    /// Used by the OLED panel-power extension, where static panel power
    /// depends on displayed luminance.
    pub fn luminance(self) -> f64 {
        (0.2126 * f64::from(self.red())
            + 0.7152 * f64::from(self.green())
            + 0.0722 * f64::from(self.blue()))
            / 255.0
    }

    /// Source-over alpha blend of `self` on top of `dst`.
    pub fn over(self, dst: Pixel) -> Pixel {
        let a = u32::from(self.alpha());
        if a == 255 {
            return self;
        }
        if a == 0 {
            return dst;
        }
        let inv = 255 - a;
        let blend = |s: u8, d: u8| -> u8 { ((u32::from(s) * a + u32::from(d) * inv) / 255) as u8 };
        Pixel::rgba(
            blend(self.red(), dst.red()),
            blend(self.green(), dst.green()),
            blend(self.blue(), dst.blue()),
            255,
        )
    }
}

impl fmt::Display for Pixel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:08X}", self.0)
    }
}

impl From<u32> for Pixel {
    fn from(bits: u32) -> Self {
        Pixel(bits)
    }
}

impl From<Pixel> for u32 {
    fn from(p: Pixel) -> Self {
        p.0
    }
}

/// Framebuffer pixel formats supported by the modelled hardware.
///
/// The Galaxy S3 framebuffer is `Rgba8888`; `Rgb565` exists to model
/// lower-cost panels and to exercise format-dependent comparison costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PixelFormat {
    /// 32-bit RGBA, 8 bits per channel.
    #[default]
    Rgba8888,
    /// 16-bit RGB, 5-6-5 bits.
    Rgb565,
}

impl PixelFormat {
    /// Bytes occupied by one pixel in this format.
    pub const fn bytes_per_pixel(self) -> usize {
        match self {
            PixelFormat::Rgba8888 => 4,
            PixelFormat::Rgb565 => 2,
        }
    }

    /// Quantizes a pixel to this format's precision (round-trip through the
    /// format's channel widths). `Rgba8888` is the identity.
    pub fn quantize(self, p: Pixel) -> Pixel {
        match self {
            PixelFormat::Rgba8888 => p,
            PixelFormat::Rgb565 => {
                let r = p.red() & 0xF8;
                let g = p.green() & 0xFC;
                let b = p.blue() & 0xF8;
                Pixel::rgb(r, g, b)
            }
        }
    }
}

impl fmt::Display for PixelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PixelFormat::Rgba8888 => write!(f, "RGBA8888"),
            PixelFormat::Rgb565 => write!(f, "RGB565"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_round_trip() {
        let p = Pixel::rgba(1, 2, 3, 4);
        assert_eq!((p.red(), p.green(), p.blue(), p.alpha()), (1, 2, 3, 4));
        assert_eq!(Pixel::from_bits(p.to_bits()), p);
    }

    #[test]
    fn luminance_extremes() {
        assert_eq!(Pixel::BLACK.luminance(), 0.0);
        assert!((Pixel::WHITE.luminance() - 1.0).abs() < 1e-9);
        assert!(Pixel::rgb(0, 255, 0).luminance() > Pixel::rgb(255, 0, 0).luminance());
    }

    #[test]
    fn over_opaque_replaces() {
        let src = Pixel::rgb(10, 20, 30);
        assert_eq!(src.over(Pixel::WHITE), src);
    }

    #[test]
    fn over_transparent_keeps_dst() {
        let src = Pixel::rgba(10, 20, 30, 0);
        assert_eq!(src.over(Pixel::WHITE), Pixel::WHITE);
    }

    #[test]
    fn over_half_blends() {
        let src = Pixel::rgba(255, 0, 0, 128);
        let out = src.over(Pixel::BLACK);
        assert!(out.red() > 120 && out.red() < 136, "got {}", out.red());
        assert_eq!(out.alpha(), 255);
    }

    #[test]
    fn rgb565_quantization_is_idempotent() {
        let p = Pixel::rgb(201, 117, 33);
        let q = PixelFormat::Rgb565.quantize(p);
        assert_eq!(PixelFormat::Rgb565.quantize(q), q);
        assert_ne!(p, q);
        assert_eq!(PixelFormat::Rgba8888.quantize(p), p);
    }

    #[test]
    fn format_sizes() {
        assert_eq!(PixelFormat::Rgba8888.bytes_per_pixel(), 4);
        assert_eq!(PixelFormat::Rgb565.bytes_per_pixel(), 2);
    }
}
