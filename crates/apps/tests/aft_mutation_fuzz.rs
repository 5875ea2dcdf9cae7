//! Seeded mutation fuzz of the AFT front end over the app catalogue.
//!
//! Every catalogue source is truncated and byte-mutated at deterministic,
//! seeded positions and compiled under MPU and Software Only.  Whatever
//! the input, `Aft::build` must return `Ok` or a typed `Err`: a panic
//! anywhere in the lexer, parser, analyser, code generator or linker
//! fails the test and names the mutation that caused it.

use amulet_aft::aft::{Aft, AppSource};
use amulet_apps::catalog;
use amulet_core::method::IsolationMethod;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seed of the whole campaign; each (app, method) pair derives its own.
const SEED: u64 = 0xAF7F_0022;
/// Seeded truncations per (app, method).
const TRUNCATIONS: usize = 192;
/// Seeded byte-mutation variants per (app, method).
const MUTATIONS: usize = 480;

/// Bytes a mutation writes: AmuletC punctuation, digits, identifier
/// characters and whitespace, so mutants reach deep into the front end
/// rather than all failing in the lexer.
const ALPHABET: &[u8] = b"{}()[];,*&=+-<>!/%|^~?:.0123456789xaiz_ \n\t\"'#";

/// SplitMix64: a tiny deterministic generator (reference constants).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The deterministic mutants of `source`: prefixes cut at seeded
/// lengths, then copies with one to four bytes overwritten from
/// [`ALPHABET`] (or, one time in eight, any printable ASCII byte).
fn mutants(source: &str, rng: &mut SplitMix64) -> Vec<(String, String)> {
    let bytes = source.as_bytes();
    assert!(bytes.is_ascii(), "catalogue sources are ASCII");
    let mut out = Vec::with_capacity(TRUNCATIONS + MUTATIONS);
    for _ in 0..TRUNCATIONS {
        let len = rng.below(bytes.len());
        out.push((format!("truncate to {len}"), source[..len].to_string()));
    }
    for _ in 0..MUTATIONS {
        let mut mutant = bytes.to_vec();
        let mut edits = Vec::new();
        for _ in 0..=rng.below(4) {
            let at = rng.below(mutant.len());
            let byte = if rng.below(8) == 0 {
                0x20 + rng.below(0x5F) as u8
            } else {
                ALPHABET[rng.below(ALPHABET.len())]
            };
            mutant[at] = byte;
            edits.push(format!("{at}={:?}", byte as char));
        }
        let mutant = String::from_utf8(mutant).expect("ASCII stays UTF-8");
        out.push((format!("overwrite {}", edits.join(", ")), mutant));
    }
    out
}

#[test]
fn mutated_catalogue_sources_never_panic_the_aft() {
    let mut built = 0usize;
    let mut rejected = 0usize;
    for (app_index, app) in catalog().iter().enumerate() {
        for (method_index, method) in [IsolationMethod::Mpu, IsolationMethod::SoftwareOnly]
            .into_iter()
            .enumerate()
        {
            let mut rng = SplitMix64(SEED ^ ((app_index as u64) << 8) ^ method_index as u64);
            for (what, source) in mutants(app.source, &mut rng) {
                let input = AppSource::new(app.name, source, app.handlers);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    Aft::new(method).add_app(input).build().map(|_| ())
                }));
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        assert!(!e.to_string().is_empty(), "{}/{method}: {what}", app.name);
                        rejected += 1;
                    }
                    Err(_) => panic!("AFT panicked on {}/{method}: {what}", app.name),
                }
                built += 1;
            }
        }
    }
    // The fuzz must exercise both outcomes, or its mutations are too weak
    // (everything compiles) or too blunt (nothing does).
    assert!(
        rejected > 0 && rejected < built,
        "{rejected} of {built} rejected"
    );
}
