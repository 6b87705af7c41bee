//! Directory coherence of the S4 client translator under a random
//! namespace workload.
//!
//! A seeded sequence of about 2,000 create, remove, rename and rmdir ops
//! runs over three directories, with names of 1 to 40 bytes, so the
//! swap-removes move entries of different lengths across 4 KiB block
//! boundaries. After every op, for every directory:
//!
//! * the directory object's bytes, read raw from the drive, are the
//!   encoding of the translator's listing;
//! * the listing equals a second, cold mount's and the test's own model;
//! * `readdir_at` at an instant recorded earlier still returns the
//!   listing recorded then.
//!
//! The run is repeated with the translator's directory cache off.

use std::collections::BTreeMap;
use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, UserId,
};
use s4_fs::{FileKind, FileServer, Handle, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::MemDisk;
use s4_workloads::Rng;

type Fs = S4FileServer<LoopbackTransport<MemDisk>>;
type Listing = Vec<(String, Handle, FileKind)>;

const OPS: usize = 2_000;
const DIRS: usize = 3;
/// Ops between two recorded listings for the history check.
const SNAPSHOT_EVERY: usize = 50;

/// The on-disk directory table, spelled out here rather than borrowed
/// from the translator so the test pins the format: a little-endian u32
/// entry count, then per entry a u16 name length, the name, the u64
/// handle and a kind byte (1 file, 2 directory, 3 symlink).
fn encode_dir(entries: &[(String, Handle, FileKind)]) -> Vec<u8> {
    let mut out = (entries.len() as u32).to_le_bytes().to_vec();
    for (name, h, kind) in entries {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&h.to_le_bytes());
        out.push(match kind {
            FileKind::File => 1,
            FileKind::Dir => 2,
            FileKind::Symlink => 3,
        });
    }
    out
}

/// The directory object's current bytes, read from the drive directly.
fn raw_table(drive: &S4Drive<MemDisk>, ctx: &RequestContext, dir: Handle) -> Vec<u8> {
    let oid = ObjectId(dir);
    let len = match drive.dispatch(ctx, &Request::GetAttr { oid, time: None }) {
        Ok(Response::Attrs(a)) => a.size,
        other => panic!("GetAttr {dir}: {other:?}"),
    };
    let read = Request::Read {
        oid,
        offset: 0,
        len,
        time: None,
    };
    match drive.dispatch(ctx, &read) {
        Ok(Response::Data(d)) => d,
        other => panic!("Read {dir}: {other:?}"),
    }
}

fn random_name(rng: &mut Rng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
    let len = rng.range(1, 40) as usize;
    (0..len)
        .map(|_| CHARS[rng.index(CHARS.len())] as char)
        .collect()
}

/// A name not yet used in `dir`.
fn fresh_name(rng: &mut Rng, dir: &BTreeMap<String, FileKind>) -> String {
    loop {
        let name = random_name(rng);
        if !dir.contains_key(&name) {
            return name;
        }
    }
}

/// A random entry of `dir` of one of `kinds`, if it has any.
fn pick(rng: &mut Rng, dir: &BTreeMap<String, FileKind>, kinds: &[FileKind]) -> Option<String> {
    let names: Vec<&String> = dir
        .iter()
        .filter(|(_, k)| kinds.contains(k))
        .map(|(n, _)| n)
        .collect();
    (!names.is_empty()).then(|| names[rng.index(names.len())].clone())
}

fn mount(drive: &Arc<S4Drive<MemDisk>>, config: S4FsConfig) -> Fs {
    S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "coherence",
        config,
    )
    .unwrap()
}

/// Runs one random op, applying it to `model` as well. Every op is valid
/// against the model, so each must succeed.
fn step(rng: &mut Rng, fs: &Fs, dirs: &[Handle], model: &mut [BTreeMap<String, FileKind>]) {
    let d = rng.index(DIRS);
    let roll = rng.below(100);
    if roll < 15 {
        if let Some(name) = pick(rng, &model[d], &[FileKind::File]) {
            fs.remove(dirs[d], &name).unwrap();
            model[d].remove(&name);
            return;
        }
    } else if roll < 20 {
        if let Some(name) = pick(rng, &model[d], &[FileKind::Dir]) {
            fs.rmdir(dirs[d], &name).unwrap();
            model[d].remove(&name);
            return;
        }
    } else if roll < 45 {
        if let Some(from) = pick(rng, &model[d], &[FileKind::File, FileKind::Dir]) {
            let t = rng.index(DIRS);
            // A third of renames overwrite an existing file.
            let to = match rng.chance(1, 3) {
                true => pick(rng, &model[t], &[FileKind::File])
                    .filter(|to| (t, to) != (d, &from))
                    .unwrap_or_else(|| fresh_name(rng, &model[t])),
                false => fresh_name(rng, &model[t]),
            };
            fs.rename(dirs[d], &from, dirs[t], &to).unwrap();
            let kind = model[d].remove(&from).unwrap();
            model[t].insert(to, kind);
            return;
        }
    }
    let name = fresh_name(rng, &model[d]);
    let kind = if rng.chance(1, 5) {
        fs.mkdir(dirs[d], &name).unwrap();
        FileKind::Dir
    } else {
        fs.create(dirs[d], &name).unwrap();
        FileKind::File
    };
    model[d].insert(name, kind);
}

fn run(seed: u64, config: S4FsConfig) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(256 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap(),
    );
    let fs = mount(&drive, config);
    let cold = mount(
        &drive,
        S4FsConfig {
            attr_cache: false,
            dir_cache: false,
            ..S4FsConfig::default()
        },
    );
    let ctx = *fs.context();
    let dirs: Vec<Handle> = (0..DIRS)
        .map(|i| fs.mkdir(fs.root(), &format!("d{i}")).unwrap())
        .collect();
    let mut model = vec![BTreeMap::new(); DIRS];
    let mut rng = Rng::new(seed);
    let mut history: Vec<(SimTime, usize, Listing)> = Vec::new();
    let mut longest = 0;

    for op in 0..OPS {
        clock.advance(SimDuration::from_millis(10));
        step(&mut rng, &fs, &dirs, &mut model);
        let now = fs.now();
        for (i, &dir) in dirs.iter().enumerate() {
            let listing = fs.readdir(dir).unwrap();
            let raw = raw_table(&drive, &ctx, dir);
            // A directory never written since mkdir is an empty object.
            if !(raw.is_empty() && listing.is_empty()) {
                assert_eq!(
                    raw,
                    encode_dir(&listing),
                    "op {op}: d{i} table on the drive"
                );
            }
            longest = longest.max(raw.len());
            assert_eq!(
                listing,
                cold.readdir(dir).unwrap(),
                "op {op}: d{i} cold mount"
            );
            let names: Vec<&String> = model[i].keys().collect();
            let mut listed: Vec<&String> = listing.iter().map(|(n, _, _)| n).collect();
            listed.sort();
            assert_eq!(listed, names, "op {op}: d{i} model");
            if op % SNAPSHOT_EVERY == 0 {
                history.push((now, i, listing));
            }
        }
        let (t, i, then) = &history[rng.index(history.len())];
        assert_eq!(
            &fs.readdir_at(dirs[*i], *t).unwrap(),
            then,
            "op {op}: d{i} at {t:?}"
        );
    }
    for (t, i, then) in &history {
        assert_eq!(&fs.readdir_at(dirs[*i], *t).unwrap(), then, "d{i} at {t:?}");
    }
    assert!(
        longest > 4096,
        "the workload must grow a directory past one block (longest {longest} B)"
    );
}

#[test]
fn directory_tables_stay_coherent_with_drive_cold_mount_and_history() {
    run(13, S4FsConfig::default());
}

#[test]
fn directory_tables_stay_coherent_without_the_directory_cache() {
    run(
        14,
        S4FsConfig {
            dir_cache: false,
            ..S4FsConfig::default()
        },
    );
}
