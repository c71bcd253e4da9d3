//! Versioned, checksummed snapshot codec and deterministic rewind support.
//!
//! A snapshot is a self-describing binary frame:
//!
//! ```text
//! magic "PDSN" | version u32 | config fingerprint u64 | payload_len u64
//!              | payload bytes | FNV-1a checksum u64 (over everything prior)
//! ```
//!
//! The payload is produced by [`Persist`] implementations over the kernel's
//! own state types (clock, calendar, RNG streams, model entities). The
//! calendar is captured in a *canonical drained form* — the sorted list of
//! pending `(time, seq, event)` entries — so a snapshot taken on the timing
//! wheel restores bit-identically on the reference calendar and vice versa.
//!
//! Decoding never panics: every reader returns [`SnapError`] on truncated,
//! corrupted, or semantically invalid input. This file is registered with
//! `paradyn-lint`'s panic-path rule, which bans `unwrap`/`expect`/`panic!`
//! tokens outright.

use crate::engine::{Model, Sim};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Leading magic bytes of every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PDSN";

/// Current snapshot format version. Bumped on any layout change; decoders
/// reject every other version rather than guessing.
pub const SNAPSHOT_VERSION: u32 = 10;

/// Why a snapshot failed to decode. All decode paths return this — snapshot
/// handling must never panic on untrusted bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected data.
    Truncated,
    /// The frame does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The frame's format version is not [`SNAPSHOT_VERSION`].
    BadVersion {
        /// Version found in the frame.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The FNV-1a checksum does not match the frame contents.
    BadChecksum,
    /// The snapshot was taken under a different configuration fingerprint.
    ConfigMismatch {
        /// Fingerprint the restoring model expects.
        expected: u64,
        /// Fingerprint stored in the frame.
        found: u64,
    },
    /// Bytes remain after the payload was fully consumed.
    TrailingBytes,
    /// A field decoded but violates an invariant of its type.
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (expected {expected})")
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match {expected:#018x}"
            ),
            SnapError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the frame checksum and config fingerprint primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only byte encoder. Encoding is infallible.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by its exact bit pattern (NaN-safe round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked byte decoder over a borrowed slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`, starting at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, SnapError> {
        let s = self.take(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(u128::from_le_bytes(b))
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a `bool`; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte not 0/1")),
        }
    }

    /// Read a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapError::Malformed("usize overflow"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// A type that can write itself into an [`Enc`] and rebuild itself from a
/// [`Dec`]. `load` must validate every invariant the type normally enforces
/// by construction, returning [`SnapError::Malformed`] instead of panicking.
pub trait Persist: Sized {
    /// Append this value's canonical byte form.
    fn save(&self, w: &mut Enc);
    /// Rebuild a value, validating invariants.
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError>;
}

/// A value whose shape its configuration fixes: the frame carries only
/// what changes during a run, and `load_into` overwrites that part of a
/// value freshly built from the same configuration, keeping the rest as
/// built. Like [`Persist::load`], it validates and never panics.
pub trait PersistInto {
    /// Append the run-time part of this value.
    fn save(&self, w: &mut Enc);
    /// Overwrite the run-time part of this (freshly built) value.
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError>;
}

/// Element by element: the built length is the configuration's, so the
/// frame carries no count.
impl<T: PersistInto> PersistInto for Vec<T> {
    fn save(&self, w: &mut Enc) {
        for v in self {
            v.save(w);
        }
    }
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.load_into(r))
    }
}

/// Whether the value exists is the configuration's, so the frame carries
/// no tag.
impl<T: PersistInto> PersistInto for Option<T> {
    fn save(&self, w: &mut Enc) {
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        match self {
            Some(v) => v.load_into(r),
            None => Ok(()),
        }
    }
}

impl Persist for u8 {
    fn save(&self, w: &mut Enc) {
        w.put_u8(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_u8()
    }
}

impl Persist for u32 {
    fn save(&self, w: &mut Enc) {
        w.put_u32(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_u32()
    }
}

impl Persist for u64 {
    fn save(&self, w: &mut Enc) {
        w.put_u64(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_u64()
    }
}

impl Persist for usize {
    fn save(&self, w: &mut Enc) {
        w.put_usize(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_usize()
    }
}

impl Persist for f64 {
    fn save(&self, w: &mut Enc) {
        w.put_f64(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_f64()
    }
}

impl Persist for bool {
    fn save(&self, w: &mut Enc) {
        w.put_bool(*self);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        r.take_bool()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Enc) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapError::Malformed("Option tag not 0/1")),
        }
    }
}

/// Cap for speculative preallocation while decoding length-prefixed
/// containers: a corrupt length must not trigger a huge allocation before
/// the (inevitable) `Truncated` error surfaces.
const PREALLOC_CAP: usize = 4096;

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Enc) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut Enc) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        let mut out = VecDeque::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Enc) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Enc) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Model-level state capture: everything [`Sim::snapshot_now`] needs beyond
/// the kernel's own clock/calendar state.
pub trait PersistState {
    /// A stable fingerprint of the configuration this state was built from.
    /// Snapshots embed it; restoring under a different fingerprint fails
    /// with [`SnapError::ConfigMismatch`].
    fn fingerprint(&self) -> u64;
    /// Append the model's full mutable state.
    fn save_state(&self, w: &mut Enc);
    /// Overwrite this (freshly built) model's state from the decoder,
    /// validating structural invariants against the built shape.
    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError>;
    /// Check one pending event of a restored calendar against the state
    /// [`load_state`](Self::load_state) rebuilt: an event this model could
    /// not handle (one naming an entity it does not have, say) is
    /// [`SnapError::Malformed`]. [`Sim::restore`] calls it for every
    /// pending event once both are loaded; the default accepts them all.
    fn check_pending(&self, _ev: &<Self as Model>::Event) -> Result<(), SnapError>
    where
        Self: Model,
    {
        Ok(())
    }
    /// Check the state [`load_state`](Self::load_state) rebuilt against
    /// the restored clock `now`: an instant the state records as past (when
    /// a wait or an outage began, say) that lies after `now` is
    /// [`SnapError::Malformed`]. [`Sim::restore`] calls it once both are
    /// loaded; the default accepts.
    fn check_clock(&self, _now: SimTime) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Wrap `payload` in a sealed frame: magic, version, fingerprint, length,
/// payload, checksum.
pub fn seal(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a sealed frame and return `(fingerprint, payload)`.
///
/// Checks run in order: magic, version, length, checksum — so a frame from
/// a future format version reports [`SnapError::BadVersion`] even though its
/// checksum (computed by rules we do not know) would also fail.
pub fn open(bytes: &[u8]) -> Result<(u64, &[u8]), SnapError> {
    const HEADER: usize = 4 + 4 + 8 + 8;
    let mut r = Dec::new(bytes);
    let magic = r.take(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.take_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let fingerprint = r.take_u64()?;
    let payload_len = r.take_usize()?;
    let body_end = HEADER.checked_add(payload_len).ok_or(SnapError::Truncated)?;
    let frame_end = body_end.checked_add(8).ok_or(SnapError::Truncated)?;
    if bytes.len() < frame_end {
        return Err(SnapError::Truncated);
    }
    if bytes.len() > frame_end {
        return Err(SnapError::TrailingBytes);
    }
    let body = bytes.get(..body_end).ok_or(SnapError::Truncated)?;
    let stored = bytes.get(body_end..frame_end).ok_or(SnapError::Truncated)?;
    let mut sum = [0u8; 8];
    sum.copy_from_slice(stored);
    if fnv1a(body) != u64::from_le_bytes(sum) {
        return Err(SnapError::BadChecksum);
    }
    let payload = bytes.get(HEADER..body_end).ok_or(SnapError::Truncated)?;
    Ok((fingerprint, payload))
}

/// The first point at which two nominally identical runs disagree, as
/// reported by [`rewind_bisect`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Simulated time of the first divergent event.
    pub at: SimTime,
    /// Debug rendering of run A's event at the divergence point.
    pub event_a: String,
    /// Debug rendering of run B's event at the divergence point.
    pub event_b: String,
    /// Events both runs executed identically before diverging.
    pub executed_before: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.event_a == self.event_b {
            write!(
                f,
                "runs diverge at t={} ns while handling event #{} {} (identical event, divergent resulting state)",
                self.at.as_nanos(),
                self.executed_before,
                self.event_a
            )
        } else {
            write!(
                f,
                "runs diverge at t={} ns after {} identical events: A executes {} but B executes {}",
                self.at.as_nanos(),
                self.executed_before,
                self.event_a,
                self.event_b
            )
        }
    }
}

/// Render the next live event of a sim for divergence reports.
fn next_desc<M>(sim: &Sim<M>) -> Option<(SimTime, String)>
where
    M: Model,
    M::Event: Clone + fmt::Debug,
{
    sim.peek_next().map(|(at, ev)| (at, format!("{ev:?}")))
}

/// Binary-search two divergent runs for their first divergent event.
///
/// `mk_a`/`mk_b` build the two runs from scratch (same model type, possibly
/// different seeds/configurations). The bisection compares canonical state
/// payloads after equal executed-event counts, narrowing to the longest
/// prefix after which both runs hold bit-identical state; snapshots taken at
/// the proven-equal low point let each probe resume from there instead of
/// re-simulating from zero. A final event-by-event lockstep from the low
/// point reports the exact first divergent `(time, event)` pair.
///
/// Returns `Ok(None)` when both runs reach `horizon` with identical state.
/// Known limitation: state-equality bisection assumes the runs do not
/// diverge and then *reconverge* to byte-identical state; for the RNG-driven
/// models in this workspace that is effectively impossible.
pub fn rewind_bisect<M, FA, FB>(
    mk_a: FA,
    mk_b: FB,
    horizon: SimTime,
) -> Result<Option<Divergence>, SnapError>
where
    M: Model + PersistState,
    M::Event: Persist + Clone + fmt::Debug,
    FA: Fn() -> Sim<M>,
    FB: Fn() -> Sim<M>,
{
    // Full run first: equal end states mean no divergence to locate.
    let mut full_a = mk_a();
    let mut full_b = mk_b();
    full_a.run_until(horizon);
    full_b.run_until(horizon);
    if full_a.state_payload() == full_b.state_payload() {
        return Ok(None);
    }
    let total = full_a.executed_events().max(full_b.executed_events());

    // Restore-or-rebuild a run positioned after exactly `lo` events.
    let at_lo = |mk: &dyn Fn() -> Sim<M>, snap: &Option<Vec<u8>>| -> Result<Sim<M>, SnapError> {
        let donor = mk();
        match snap {
            Some(bytes) => {
                let kind = donor.calendar_kind();
                Sim::restore(donor.into_model(), kind, bytes)
            }
            None => Ok(donor),
        }
    };

    // Invariant: after `lo` events the two runs are byte-identical (lo = 0
    // trivially so only when their initial payloads match; if they differ
    // at zero events the lockstep below starts from fresh sims and reports
    // the first event whose handling exposes the difference).
    let mut lo: u64 = 0;
    let mut hi: u64 = total;
    let mut snap_a: Option<Vec<u8>> = None;
    let mut snap_b: Option<Vec<u8>> = None;
    {
        let a0 = mk_a();
        let b0 = mk_b();
        if a0.state_payload() != b0.state_payload() {
            // Initial states already differ; skip the bisection.
            hi = 0;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let mut a = at_lo(&mk_a, &snap_a)?;
        let mut b = at_lo(&mk_b, &snap_b)?;
        a.run_events(mid - a.executed_events());
        b.run_events(mid - b.executed_events());
        if a.state_payload() == b.state_payload() {
            lo = mid;
            snap_a = Some(a.snapshot_now());
            snap_b = Some(b.snapshot_now());
        } else {
            hi = mid;
        }
    }

    // Lockstep from the last proven-equal point.
    let mut a = at_lo(&mk_a, &snap_a)?;
    let mut b = at_lo(&mk_b, &snap_b)?;
    a.run_events(lo - a.executed_events());
    b.run_events(lo - b.executed_events());
    loop {
        let na = next_desc(&a);
        let nb = next_desc(&b);
        match (na, nb) {
            (None, None) => return Ok(None),
            (Some((ta, ea)), Some((tb, eb))) => {
                if ta != tb || ea != eb {
                    return Ok(Some(Divergence {
                        at: ta.min(tb),
                        event_a: ea,
                        event_b: eb,
                        executed_before: a.executed_events(),
                    }));
                }
                if ta > horizon {
                    return Ok(None);
                }
                a.step();
                b.step();
                if a.state_payload() != b.state_payload() {
                    return Ok(Some(Divergence {
                        at: ta,
                        event_a: ea,
                        event_b: eb,
                        executed_before: a.executed_events().saturating_sub(1),
                    }));
                }
            }
            (Some((ta, ea)), None) => {
                return Ok(Some(Divergence {
                    at: ta,
                    event_a: ea,
                    event_b: "<calendar empty>".to_string(),
                    executed_before: a.executed_events(),
                }));
            }
            (None, Some((tb, eb))) => {
                return Ok(Some(Divergence {
                    at: tb,
                    event_a: "<calendar empty>".to_string(),
                    event_b: eb,
                    executed_before: b.executed_events(),
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Enc::new();
        0xAAu8.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        0x0123_4567_89AB_CDEFu64.save(&mut w);
        (-0.0f64).save(&mut w);
        true.save(&mut w);
        Some(7u64).save(&mut w);
        Option::<u64>::None.save(&mut w);
        vec![1u32, 2, 3].save(&mut w);
        w.put_u128(u128::MAX - 1);
        let bytes = w.into_bytes();
        let mut r = Dec::new(&bytes);
        assert_eq!(u8::load(&mut r), Ok(0xAA));
        assert_eq!(u32::load(&mut r), Ok(0xDEAD_BEEF));
        assert_eq!(u64::load(&mut r), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(f64::load(&mut r).map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(bool::load(&mut r), Ok(true));
        assert_eq!(Option::<u64>::load(&mut r), Ok(Some(7)));
        assert_eq!(Option::<u64>::load(&mut r), Ok(None));
        assert_eq!(Vec::<u32>::load(&mut r), Ok(vec![1, 2, 3]));
        assert_eq!(r.take_u128(), Ok(u128::MAX - 1));
        assert!(r.is_empty());
    }

    #[test]
    fn bad_bool_and_bad_option_tags_are_malformed() {
        let mut r = Dec::new(&[2]);
        assert_eq!(bool::load(&mut r), Err(SnapError::Malformed("bool byte not 0/1")));
        let mut r = Dec::new(&[9]);
        assert!(matches!(Option::<u8>::load(&mut r), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn corrupt_vec_length_is_truncated_not_oom() {
        let mut w = Enc::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Dec::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut r), Err(SnapError::Truncated));
    }

    #[test]
    fn seal_open_round_trip_and_rejections() {
        let payload = [1u8, 2, 3, 4, 5];
        let sealed = seal(0xF1F2, &payload);
        assert_eq!(open(&sealed), Ok((0xF1F2, &payload[..])));
        // Truncation at every prefix length fails.
        for n in 0..sealed.len() {
            assert!(open(&sealed[..n]).is_err(), "prefix {n} accepted");
        }
        // Trailing garbage fails.
        let mut longer = sealed.clone();
        longer.push(0);
        assert_eq!(open(&longer), Err(SnapError::TrailingBytes));
        // Any single-bit flip fails.
        for byte in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[byte] ^= 1;
            assert!(open(&bad).is_err(), "bit flip in byte {byte} accepted");
        }
    }

    #[test]
    fn future_version_reports_bad_version_even_with_valid_checksum() {
        let sealed = seal(7, &[9, 9, 9]);
        let mut crafted = sealed[..sealed.len() - 8].to_vec();
        crafted[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let sum = fnv1a(&crafted);
        crafted.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            open(&crafted),
            Err(SnapError::BadVersion {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION
            })
        );
    }
}
