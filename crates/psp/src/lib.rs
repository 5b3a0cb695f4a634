#![warn(missing_docs)]

//! # p3-psp — photo-sharing-provider simulator
//!
//! Stands in for Facebook/Flickr in the P3 system experiments. The
//! simulator reproduces the provider behaviours the paper measured or
//! depends on (§2.1, §4.1):
//!
//! * **upload validation** — "PSPs like Facebook reject attempts to
//!   upload fully-encrypted images": bodies must decode as JPEG;
//! * **marker stripping** — application segments (where one might hide a
//!   secret part) are removed;
//! * **static resize ladder** — e.g. Facebook's 720/130/75 renditions,
//!   built with a *hidden* pipeline (filter, sharpening, gamma, progressive
//!   re-encode) the client cannot observe directly;
//! * **dynamic transforms** — resize/crop parameters in the GET URL;
//! * an optional **countermeasure mode** (§4.2) where the PSP detects
//!   threshold-clipped uploads and refuses them.
//!
//! [`reverse`] implements the client-side answer: the exhaustive
//! parameter search the paper uses to approximate the hidden pipeline
//! ("we select several candidate settings for colorspace conversion,
//! filtering, sharpening, enhancing, and gamma corrections, and then
//! compare the output of these with that produced by the PSP").
//!
//! The untrusted blob store (the paper used Dropbox) that holds the
//! encrypted secret parts, addressed by PSP photo ID, is the
//! `p3-storage` crate.

pub mod profile;
pub mod reverse;
pub mod service;

pub use profile::{PspProfile, SizeRequest};
pub use reverse::{reverse_engineer, ReverseReport};
pub use service::{PspCore, PspService, UploadError};
