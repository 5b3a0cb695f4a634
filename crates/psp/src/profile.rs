//! PSP transform profiles — the *hidden* server-side pipelines.
//!
//! "Some other critical image processing parameters are not visible to
//! the outside world. For example, the process of resizing an image
//! using down sampling is often accompanied by a filtering step for
//! antialiasing and may be followed by a sharpening step, together with
//! a color adjustment step" (§4.1). The two stock profiles differ in all
//! of those, plus output format, the way the real providers did:
//! Facebook re-encodes to progressive and caps at 720 px; Flickr keeps
//! baseline and a deeper ladder.

use p3_core::transform::TransformSpec;
use p3_jpeg::encoder::Mode;
use p3_vision::resize::ResizeFilter;

/// What a client may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeRequest {
    /// The largest stored rendition.
    Full,
    /// The "big" ladder entry (Facebook: 720×720 fit).
    Big,
    /// The "small" ladder entry (130×130 fit).
    Small,
    /// The thumbnail (75×75 fit).
    Thumb,
    /// Dynamic resize to fit a W×H box.
    Fit(u16, u16),
    /// Dynamic crop (x, y, w, h) at full resolution.
    Crop(u16, u16, u16, u16),
}

/// A provider's (hidden) processing profile.
#[derive(Debug, Clone)]
pub struct PspProfile {
    /// Display name.
    pub name: &'static str,
    /// Static ladder: maximum side length per stored rendition,
    /// best-first. The first entry caps everything ("the largest
    /// resolution photos stored by Facebook is 720x720, regardless of
    /// the original resolution").
    pub ladder: Vec<usize>,
    /// Hidden resampling filter.
    pub filter: ResizeFilter,
    /// Hidden unsharp parameters (sigma, amount).
    pub sharpen: (f32, f32),
    /// Hidden gamma adjustment.
    pub gamma: f32,
    /// Re-encode quality.
    pub quality: u8,
    /// Output entropy-coding mode (Facebook: progressive).
    pub output_mode: Mode,
    /// §4.2 countermeasure: refuse uploads that look threshold-clipped.
    pub detect_p3_uploads: bool,
}

impl PspProfile {
    /// Facebook-like: 720/130/75 ladder, Lanczos3 + light sharpening,
    /// progressive output.
    pub fn facebook() -> Self {
        PspProfile {
            name: "facebook",
            ladder: vec![720, 130, 75],
            filter: ResizeFilter::Lanczos3,
            sharpen: (0.8, 0.5),
            gamma: 1.0,
            quality: 85,
            output_mode: Mode::Progressive,
            detect_p3_uploads: false,
        }
    }

    /// Flickr-like: deeper ladder, Mitchell filter, no sharpening,
    /// baseline output ("Flickr generates a series of fixed-resolution
    /// images whose number depends on the size of the uploaded image").
    pub fn flickr() -> Self {
        PspProfile {
            name: "flickr",
            ladder: vec![1024, 500, 240, 75],
            filter: ResizeFilter::Mitchell,
            sharpen: (1.0, 0.0),
            gamma: 1.0,
            quality: 90,
            output_mode: Mode::BaselineOptimized,
            detect_p3_uploads: false,
        }
    }

    /// An adversarial profile for the §4.2 discussion: detects and
    /// refuses P3 public parts.
    pub fn hostile() -> Self {
        PspProfile { name: "hostile", detect_p3_uploads: true, ..Self::facebook() }
    }

    /// The ladder side for a named size.
    pub fn ladder_side(&self, req: SizeRequest) -> Option<usize> {
        match req {
            SizeRequest::Full | SizeRequest::Big => self.ladder.first().copied(),
            SizeRequest::Small => self.ladder.get(self.ladder.len().saturating_sub(2)).copied(),
            SizeRequest::Thumb => self.ladder.last().copied(),
            _ => None,
        }
    }

    /// The full hidden [`TransformSpec`] for an input of `w × h` and a
    /// target maximum side: the longer side becomes `max_side`, aspect
    /// ratio kept, and an input already that small is not resized.
    pub fn transform_to_side(&self, w: usize, h: usize, max_side: usize) -> TransformSpec {
        let longest = w.max(h);
        let resize_to = if longest <= max_side {
            None
        } else {
            let scale = max_side as f64 / longest as f64;
            Some((
                ((w as f64 * scale).round() as usize).max(1),
                ((h as f64 * scale).round() as usize).max(1),
            ))
        };
        TransformSpec {
            crop: None,
            resize_to,
            filter: self.filter,
            sharpen: self.sharpen,
            gamma: self.gamma,
        }
    }

    /// Parse a request's query into a [`SizeRequest`].
    pub fn parse_size(query: &[(String, String)]) -> SizeRequest {
        for (k, v) in query {
            match (k.as_str(), v.as_str()) {
                ("size", "big") => return SizeRequest::Big,
                ("size", "small") => return SizeRequest::Small,
                ("size", "thumb") => return SizeRequest::Thumb,
                ("size", "full") => return SizeRequest::Full,
                ("fit", spec) => {
                    if let Some((w, h)) = spec.split_once('x') {
                        if let (Ok(w), Ok(h)) = (w.parse(), h.parse()) {
                            return SizeRequest::Fit(w, h);
                        }
                    }
                }
                ("crop", spec) => {
                    let parts: Vec<u16> = spec.split(',').filter_map(|p| p.parse().ok()).collect();
                    if parts.len() == 4 {
                        return SizeRequest::Crop(parts[0], parts[1], parts[2], parts[3]);
                    }
                }
                _ => {}
            }
        }
        SizeRequest::Big
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let fb = PspProfile::facebook();
        let fl = PspProfile::flickr();
        assert_ne!(fb.filter, fl.filter);
        assert_ne!(fb.output_mode, fl.output_mode);
        assert_ne!(fb.ladder, fl.ladder);
    }

    #[test]
    fn ladder_side_mapping() {
        let fb = PspProfile::facebook();
        assert_eq!(fb.ladder_side(SizeRequest::Big), Some(720));
        assert_eq!(fb.ladder_side(SizeRequest::Small), Some(130));
        assert_eq!(fb.ladder_side(SizeRequest::Thumb), Some(75));
        assert_eq!(fb.ladder_side(SizeRequest::Fit(10, 10)), None);
    }

    #[test]
    fn transform_preserves_aspect() {
        let fb = PspProfile::facebook();
        let t = fb.transform_to_side(1440, 960, 720);
        assert_eq!(t.resize_to, Some((720, 480)));
        // Small images are not upscaled.
        let t = fb.transform_to_side(100, 80, 720);
        assert_eq!(t.resize_to, None);
    }

    #[test]
    fn parse_size_variants() {
        let q = |s: &str| -> Vec<(String, String)> {
            s.split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap_or((p, ""));
                    (k.to_string(), v.to_string())
                })
                .collect()
        };
        assert_eq!(PspProfile::parse_size(&q("size=small")), SizeRequest::Small);
        assert_eq!(PspProfile::parse_size(&q("fit=320x240")), SizeRequest::Fit(320, 240));
        assert_eq!(PspProfile::parse_size(&q("crop=8,16,64,48")), SizeRequest::Crop(8, 16, 64, 48));
        assert_eq!(PspProfile::parse_size(&q("")), SizeRequest::Big);
        assert_eq!(PspProfile::parse_size(&q("fit=bogus")), SizeRequest::Big);
    }
}
