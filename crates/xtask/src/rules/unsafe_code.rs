//! `unsafe_allowlist` + `safety_comment`: `unsafe` may appear only in
//! the configured files, and every `unsafe` token there must be covered
//! by a `// SAFETY:` comment on the same line or in the contiguous
//! comment block directly above.
//!
//! `unsafe_allowlist` also guards the two ways around the allowlist that
//! carry no `unsafe` token of their own:
//!
//! * `core::arch` / `std::arch` paths, in *every* file (allowlisted ones
//!   included): the bucket scans are safe autovectorized code, and
//!   intrinsics would be a second, hand-vectorized probe path. No cfg
//!   exemption either — a cfg-gated intrinsic is still one.
//! * `allow(unsafe_code)` outside `[unsafe_code] allow` — the file-level
//!   escape hatch from the crate's `#![deny(unsafe_code)]`, which would
//!   silently widen the unsafe surface before any `unsafe` token appears.
//!
//! Deliberately not waivable: the config list *is* the waiver mechanism.

use super::{exempt_at, ident_at, listed, path_at, push_at, Finding};
use crate::{Config, FileAnalysis};

pub fn check(fa: &FileAnalysis, config: &Config, out: &mut Vec<Finding>) {
    let allowed = listed(&config.unsafe_allow, &fa.rel);
    for pos in 0..fa.code.len() {
        if path_at(fa, pos, &["core", "::", "arch"]) || path_at(fa, pos, &["std", "::", "arch"]) {
            push_at(
                fa,
                out,
                pos,
                "unsafe_allowlist",
                "`core::arch`/`std::arch` path; the bucket scans are safe \
                 autovectorized code and keep no explicit-intrinsics twin"
                    .to_string(),
            );
        }
        // `allow ( unsafe_code )` — both `#![allow(...)]` and `#[allow(...)]`
        // reduce to this token run once delimiters are individual tokens.
        if !allowed
            && ident_at(fa, pos) == Some("allow")
            && path_at(fa, pos.saturating_add(1), &["(", "unsafe_code", ")"])
        {
            push_at(
                fa,
                out,
                pos,
                "unsafe_allowlist",
                format!(
                    "`allow(unsafe_code)` outside the allowlist ({}); the crate-level \
                     `deny(unsafe_code)` must not be overridden elsewhere",
                    config.unsafe_allow.join(", ")
                ),
            );
        }
        if ident_at(fa, pos) != Some("unsafe") || exempt_at(fa, pos) {
            continue;
        }
        if !allowed {
            push_at(
                fa,
                out,
                pos,
                "unsafe_allowlist",
                format!(
                    "`unsafe` outside the allowlist ({}); move the code behind a safe \
                     abstraction or extend `[unsafe_code] allow` in lint.toml",
                    config.unsafe_allow.join(", ")
                ),
            );
        } else if !safety_covered(fa, pos) {
            push_at(
                fa,
                out,
                pos,
                "safety_comment",
                "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold"
                    .to_string(),
            );
        }
    }
}

/// SAFETY coverage: a comment containing `SAFETY:` on the token's line,
/// or in the contiguous run of comment-only lines directly above it.
fn safety_covered(fa: &FileAnalysis, pos: usize) -> bool {
    let Some(tok) = fa.code_tok(pos) else {
        return false;
    };
    let line = tok.line; // 1-based
    if fa.line_has_safety(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l = l.saturating_sub(1);
        if !fa.line_comment_only(l) {
            return false;
        }
        if fa.line_has_safety(l) {
            return true;
        }
    }
    false
}
