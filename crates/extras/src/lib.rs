#![warn(missing_docs)]

//! What the paper proposes beside the page server and client: signed
//! metadata and content attestation (§7), CMS conversion tags (§4.2),
//! and video negotiation with an HLS-like stream (§3.2). None of it is
//! on the serving path, so none of it depends on `sww-core`; a caller
//! folds it in at its own seam — a tag into the converter's
//! `fetch_image` closure, [`respond_video`] into an HTTP/2 handler.

mod cms;
mod hls;
mod trust;
mod video;

pub use cms::{Cms, ContentTag, Template};
pub use hls::{respond_video, VideoAsset};
pub use trust::{attest_image, audit_attestation, sign_metadata, verify_metadata, SiteKey};
pub use video::{negotiate_stream, Resolution, StreamRequest};
