//! The security story: counter-mode encryption, MACs, and the Bonsai
//! Merkle Tree catching an attacker with physical access to the NVM DIMM.
//!
//! Run with: `cargo run --release --example secure_memory`

use janus::bmo::metadata::{slot_data_addr, META_BASE, META_LINES};
use janus::bmo::pipeline::{BmoPipeline, IntegrityError, DEFAULT_KEY};
use janus::bmo::BmoStack;
use janus::nvm::{addr::LineAddr, line::Line, store::LineStore};

const KEY: [u8; 16] = DEFAULT_KEY;

fn persist(fx: &janus::bmo::pipeline::WriteEffects, store: &mut LineStore) {
    for (a, l) in &fx.line_writes {
        store.write(*a, *l);
    }
}

fn main() {
    // The paper's trio plus SECDED ECC, composed from the BMO registry —
    // the durability demo below needs the check bytes ECC contributes.
    let stack = BmoStack::parse("enc,int,dedup,ecc").expect("valid stack");
    let mut pipeline = BmoPipeline::for_stack_with_key(&stack, KEY);
    let mut nvm = LineStore::new(); // what's physically on the DIMM
    let secret = Line::from_words(&[0xDEAD_BEEF, 0xCAFE]);

    let fx = pipeline.write(LineAddr(1), secret);
    persist(&fx, &mut nvm);
    let root = pipeline.root(); // lives in the secure on-chip register

    // 1. Confidentiality: the DIMM holds ciphertext, not the secret.
    let raw = nvm.read(slot_data_addr(fx.slot));
    assert_ne!(raw, secret, "plaintext must never reach the device");
    println!("on-DIMM bytes:   {raw:?}  (ciphertext)");
    println!(
        "decrypted value: {:?}",
        pipeline.read_verified(LineAddr(1)).unwrap()
    );

    // 2. Durability: a single flipped NVM cell is *corrected* by SECDED.
    let mut faulty = nvm.clone();
    let mut ct = faulty.read(slot_data_addr(fx.slot));
    ct.0[7] ^= 0x80;
    faulty.write(slot_data_addr(fx.slot), ct);
    let healed = BmoPipeline::recover_stack(&stack, &faulty, KEY, root)
        .expect("ECC corrects a single-bit device fault");
    assert_eq!(healed.read_verified(LineAddr(1)).unwrap(), secret);
    println!("single-bit NVM fault: corrected by SECDED, secret intact");

    // 3. Integrity: real tampering (many flipped bits) → the MAC rejects.
    let mut tampered = nvm.clone();
    let mut ct = tampered.read(slot_data_addr(fx.slot));
    for b in [3usize, 17, 40, 59] {
        ct.0[b] ^= 0xA5;
    }
    tampered.write(slot_data_addr(fx.slot), ct);
    match BmoPipeline::recover_stack(&stack, &tampered, KEY, root) {
        Err(IntegrityError::MacMismatch { slot }) => {
            println!("ciphertext tamper detected: MAC mismatch on slot {slot}")
        }
        other => panic!("tampering went undetected: {other:?}"),
    }

    // 4. Metadata integrity: rewind a counter → the Merkle root disagrees
    //    with the secure register.
    let mut replayed = nvm.clone();
    let meta_line = (META_BASE..META_BASE + META_LINES)
        .map(LineAddr)
        .find(|a| !replayed.read(*a).is_zero())
        .expect("metadata was persisted");
    replayed.write(meta_line, Line::zero());
    match BmoPipeline::recover_stack(&stack, &replayed, KEY, root) {
        Err(IntegrityError::RootMismatch) => {
            println!("metadata rollback detected: Merkle root mismatch")
        }
        other => panic!("rollback went undetected: {other:?}"),
    }

    // 5. The honest DIMM recovers fine.
    let recovered = BmoPipeline::recover_stack(&stack, &nvm, KEY, root).unwrap();
    assert_eq!(recovered.read_verified(LineAddr(1)).unwrap(), secret);
    println!("honest recovery: secret intact");
}
