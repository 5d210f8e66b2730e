//! The value domain a protocol's frame validator is written over (and,
//! for BGP, the import decision after it), so one validator serves two
//! readers: the node, on concrete bytes or values
//! ([`Concrete`]), and DiCE's exploration twin, on concolic values whose
//! every branch lands in the path condition (`dice-core` holds that
//! instance). A validator reads through the domain, compares through it
//! and funnels every data-dependent condition through
//! [`Domain::branch`]; what it decides from [`Domain::value`] or
//! [`Domain::len`] records no branch.
//!
//! The trait has only the operations the validators use. Comparisons are
//! between integers: a constant too wide for the word is above every value
//! the word can hold. Arithmetic is on integers too, and a validator keeps
//! every result within its word's width: the bytes carry no width, while
//! the concolic instance would wrap.

/// Why a validator or a twin did not accept its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<E> {
    /// A conforming node drops the input; `E` says why.
    Reject(E),
    /// A seeded defect crashes the node; the reason it crashes with.
    Crash(&'static str),
}

impl<E> Verdict<E> {
    /// The same verdict, a rejection's reason mapped by `f`.
    pub fn map<F>(self, f: impl FnOnce(E) -> F) -> Verdict<F> {
        match self {
            Verdict::Reject(e) => Verdict::Reject(f(e)),
            Verdict::Crash(why) => Verdict::Crash(why),
        }
    }
}

impl<E> From<E> for Verdict<E> {
    fn from(e: E) -> Self {
        Verdict::Reject(e)
    }
}

/// A node's input handler as exploration runs it, written once over a
/// [`Domain`]: accepted, rejected at the stage it names, or crashed.
pub trait Twin {
    /// Handle the input `d` holds.
    fn run<D: Domain>(&mut self, d: &mut D) -> Result<(), Verdict<&'static str>>;
}

/// Words and booleans over a frame's bytes, plus the branch primitive.
pub trait Domain {
    /// A value read from the frame, or computed from one.
    type Word: Copy;
    /// A condition over words.
    type Bool: Copy;

    /// The frame's length in bytes.
    fn len(&self) -> usize;

    /// Whether the frame has no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte `at`. A validator checks the length before it reads.
    fn read_u8(&mut self, at: usize) -> Self::Word;

    /// The big-endian `u16` at `at`.
    fn read_u16_be(&mut self, at: usize) -> Self::Word;

    /// The big-endian `u32` at `at`.
    fn read_u32_be(&mut self, at: usize) -> Self::Word;

    /// A word's concrete value.
    fn value(&self, w: Self::Word) -> u64;

    /// `w` zero-extended to `bits` bits.
    fn zext(&mut self, bits: u8, w: Self::Word) -> Self::Word;

    /// `w & k`.
    fn and_const(&mut self, w: Self::Word, k: u64) -> Self::Word;

    /// `w + k`.
    fn add_const(&mut self, w: Self::Word, k: u64) -> Self::Word;

    /// `w << k`.
    fn shl(&mut self, w: Self::Word, k: u8) -> Self::Word;

    /// `w >> k`.
    fn shr(&mut self, w: Self::Word, k: u8) -> Self::Word;

    /// `a | b`, of two words of one width.
    fn or(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;

    /// A word that does not depend on the frame: `v` in `bits` bits.
    fn word(&mut self, bits: u8, v: u64) -> Self::Word;

    /// `w == k`.
    fn eq_const(&mut self, w: Self::Word, k: u64) -> Self::Bool;

    /// `w != k`.
    fn ne_const(&mut self, w: Self::Word, k: u64) -> Self::Bool;

    /// `w <= k`.
    fn ule_const(&mut self, w: Self::Word, k: u64) -> Self::Bool;

    /// `w >= k`.
    fn uge_const(&mut self, w: Self::Word, k: u64) -> Self::Bool;

    /// `a || b`.
    fn bor(&mut self, a: Self::Bool, b: Self::Bool) -> Self::Bool;

    /// `a && b`.
    fn band(&mut self, a: Self::Bool, b: Self::Bool) -> Self::Bool;

    /// `!a`.
    fn bnot(&mut self, a: Self::Bool) -> Self::Bool;

    /// A condition that does not depend on the frame.
    fn lit(&mut self, b: bool) -> Self::Bool;

    /// Take the branch `site` on `cond`: the direction is `cond`'s
    /// concrete value.
    fn branch(&mut self, site: u32, cond: Self::Bool) -> bool;

    /// A condition on state the twin does not carry: `default` here, free
    /// for exploration to flip.
    fn free_bool(&mut self, default: bool) -> Self::Bool;
}

/// The bytes themselves: what the node runs.
#[derive(Debug, Clone, Copy)]
pub struct Concrete<'a>(pub &'a [u8]);

impl Domain for Concrete<'_> {
    type Word = u64;
    type Bool = bool;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn read_u8(&mut self, at: usize) -> u64 {
        self.0[at] as u64
    }

    fn read_u16_be(&mut self, at: usize) -> u64 {
        u16::from_be_bytes([self.0[at], self.0[at + 1]]) as u64
    }

    fn read_u32_be(&mut self, at: usize) -> u64 {
        let b = self.0;
        u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]) as u64
    }

    fn value(&self, w: u64) -> u64 {
        w
    }

    fn zext(&mut self, _bits: u8, w: u64) -> u64 {
        w
    }

    fn and_const(&mut self, w: u64, k: u64) -> u64 {
        w & k
    }

    fn add_const(&mut self, w: u64, k: u64) -> u64 {
        w + k
    }

    fn shl(&mut self, w: u64, k: u8) -> u64 {
        w << k
    }

    fn shr(&mut self, w: u64, k: u8) -> u64 {
        w >> k
    }

    fn or(&mut self, a: u64, b: u64) -> u64 {
        a | b
    }

    fn word(&mut self, _bits: u8, v: u64) -> u64 {
        v
    }

    fn eq_const(&mut self, w: u64, k: u64) -> bool {
        w == k
    }

    fn ne_const(&mut self, w: u64, k: u64) -> bool {
        w != k
    }

    fn ule_const(&mut self, w: u64, k: u64) -> bool {
        w <= k
    }

    fn uge_const(&mut self, w: u64, k: u64) -> bool {
        w >= k
    }

    fn bor(&mut self, a: bool, b: bool) -> bool {
        a || b
    }

    fn band(&mut self, a: bool, b: bool) -> bool {
        a && b
    }

    fn bnot(&mut self, a: bool) -> bool {
        !a
    }

    fn lit(&mut self, b: bool) -> bool {
        b
    }

    fn branch(&mut self, _site: u32, cond: bool) -> bool {
        cond
    }

    fn free_bool(&mut self, default: bool) -> bool {
        default
    }
}
