//! Shared by the encoder's golden and allocation tests (and, through
//! `include!` of `card.rs`, by the decoder's unit tests).

use p3_jpeg::RgbImage;

include!("card.rs");
