//! Profile persistence (§6: the analyzer "records all the insights into
//! files and passes them to TxSampler's GUI").
//!
//! Profiles serialize to a small line-oriented text format (one record per
//! line, tab-separated, with a header) rather than JSON: it diffs cleanly,
//! greps cleanly, and needs no external dependencies. The CCT serializes
//! in id order — parents always precede children — so loading is a single
//! forward pass.
//!
//! The body grammar is one `match` on the record tag in `parse_records`.
//! Counter records (`node`/`thread` metrics, `backend`, `cm`, the `mix=`
//! meta key) are written from and parsed into their struct's declared
//! field list (`to_fields`/`from_fields`), so a counter's position on disk
//! is its position in the declaration and nowhere else.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use rtm_runtime::{BackendMix, CmStats, Hist32, SiteHists, SiteRecord, HIST_BUCKETS};
use txsim_pmu::{FuncId, FuncRegistry, Ip};

use crate::cct::{NodeKey, ROOT};
use crate::metrics::Metrics;
use crate::profile::{Periods, Profile, RunMeta, ThreadSummary};

/// Format version written into the header, and the only one the loader
/// reads.
///
/// A v6 body holds an optional `meta` record (run provenance:
/// `workload=`, `threads=`, `period=`, `fallback=`, `mix=lock:stm:hle:switches`
/// for adaptive runs, `cm=` for the contention manager), `periods`,
/// `func`, `node`, `thread` (21-field metric records) each followed by
/// its `site` records, and the per-site `backend` mix, `hist`
/// (`func line kind count sum b0..b31`) and `cm`
/// (`func line yields stalls escalations priority_aborts`) records.
///
/// A format bump converts every committed `.txsp` file through the old
/// loader in one commit, then deletes the old grammar: any other version
/// is refused, never half-loaded.
pub const FORMAT_VERSION: u32 = 6;

/// Function names carried alongside a profile: serialized func id → name.
/// Optional in the format (`func` records); when present they make the
/// profile self-describing, so offline renderers (e.g. `repro flamegraph`)
/// produce the same labels as the live endpoints that had the run's
/// [`FuncRegistry`] in hand.
pub type FuncNames = HashMap<u32, String>;

/// Serialize a profile to the text format (no function names).
pub fn save(profile: &Profile) -> String {
    save_with_names(profile, &|_| None)
}

/// Serialize a profile with `func` records resolved from `registry`.
pub fn save_with_funcs(profile: &Profile, registry: &FuncRegistry) -> String {
    save_with_names(profile, &|id| registry.resolve(id).map(|f| f.name))
}

/// Every function id referenced by the profile's CCT and site tables
/// (`records` being the profile's site records).
fn referenced_funcs(profile: &Profile, records: &[(Ip, &SiteRecord)]) -> BTreeSet<u32> {
    let mut ids = BTreeSet::new();
    for node in profile.cct.preorder() {
        match profile.cct.key(node) {
            None => {}
            Some(NodeKey::Frame { func, callsite, .. }) => {
                ids.insert(func.0);
                ids.insert(callsite.func.0);
            }
            Some(NodeKey::Stmt { ip, .. }) => {
                ids.insert(ip.func.0);
            }
        }
    }
    for t in &profile.threads {
        ids.extend(t.sites.keys().map(|site| site.func.0));
    }
    ids.extend(records.iter().map(|(site, _)| site.func.0));
    ids
}

/// Serialize a profile, attaching a `func` record for every referenced
/// function id that `name_of` can resolve.
pub fn save_with_names(profile: &Profile, name_of: &dyn Fn(FuncId) -> Option<String>) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "txsampler-profile\tv{FORMAT_VERSION}\tsamples={}\ttruncated={}\tinterrupt_aborts={}",
        profile.samples, profile.truncated_paths, profile.interrupt_abort_samples
    )
    .unwrap();
    write_records(&mut out, profile, name_of);
    out
}

/// Append `fields` joined by `sep`.
fn push_joined(out: &mut String, sep: char, fields: &[u64]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{field}");
    }
}

/// Append one `tag func line c0 c1 …` record — the shape of every
/// fixed-arity per-site counter family.
fn push_site_counters(out: &mut String, tag: &str, site: Ip, counters: &[u64]) {
    let _ = write!(out, "{tag}\t{}\t{}\t", site.func.0, site.line);
    push_joined(out, '\t', counters);
    out.push('\n');
}

/// Write every record after the header line — the body grammar shared by
/// whole-profile files and delta chunks (the streamable extension).
fn write_records(out: &mut String, profile: &Profile, name_of: &dyn Fn(FuncId) -> Option<String>) {
    if !profile.meta.is_empty() {
        out.push_str("meta");
        if let Some(workload) = &profile.meta.workload {
            let _ = write!(out, "\tworkload={workload}");
        }
        if let Some(threads) = profile.meta.threads {
            let _ = write!(out, "\tthreads={threads}");
        }
        if let Some(period) = profile.meta.sample_period {
            let _ = write!(out, "\tperiod={period}");
        }
        if let Some(fallback) = &profile.meta.fallback {
            let _ = write!(out, "\tfallback={fallback}");
        }
        if let Some(mix) = &profile.meta.mix {
            out.push_str("\tmix=");
            push_joined(out, ':', &mix.to_fields());
        }
        if let Some(cm) = &profile.meta.cm {
            let _ = write!(out, "\tcm={cm}");
        }
        out.push('\n');
    }
    writeln!(
        out,
        "periods\t{}\t{}\t{}\t{}",
        profile.periods.cycles, profile.periods.commit, profile.periods.abort, profile.periods.mem
    )
    .unwrap();
    // Everything keyed by site is written in (func, line) order, so two
    // saves of one profile are byte-identical.
    let records = profile.records.sorted();
    for id in referenced_funcs(profile, &records) {
        if let Some(name) = name_of(FuncId(id)) {
            writeln!(out, "func\t{id}\t{name}").unwrap();
        }
    }

    // Nodes, preorder: id, parent, key, metrics. Node ids are re-mapped to
    // visit order so the loader can rebuild with a single pass.
    let order = profile.cct.preorder();
    let mut remap = std::collections::HashMap::new();
    for (new_id, &node) in order.iter().enumerate() {
        remap.insert(node, new_id);
        let parent = *remap.get(&profile.cct.parent(node)).unwrap_or(&0);
        let key = match profile.cct.key(node) {
            None => "root".to_string(),
            Some(NodeKey::Frame {
                func,
                callsite,
                speculative,
            }) => format!(
                "frame:{}:{}:{}:{}",
                func.0, callsite.func.0, callsite.line, speculative as u8
            ),
            Some(NodeKey::Stmt { ip, speculative }) => {
                format!("stmt:{}:{}:{}", ip.func.0, ip.line, speculative as u8)
            }
        };
        let _ = write!(out, "node\t{new_id}\t{parent}\t{key}\t");
        push_joined(out, ' ', &profile.cct.metrics(node).to_fields());
        out.push('\n');
    }

    for t in &profile.threads {
        let _ = write!(out, "thread\t{}\t", t.tid);
        push_joined(out, ' ', &t.totals.to_fields());
        out.push('\n');
        let mut sites: Vec<_> = t.sites.iter().collect();
        sites.sort_by_key(|(site, _)| (site.func.0, site.line));
        for (site, (c, a)) in sites {
            let _ = writeln!(
                out,
                "site\t{}\t{}\t{}\t{c}\t{a}",
                t.tid, site.func.0, site.line
            );
        }
    }

    // The runtime-fed per-site families, one block of records per family;
    // a site whose family is empty gets no record in that block.
    for (site, r) in records.iter().filter(|(_, r)| !r.mix.is_zero()) {
        push_site_counters(out, "backend", *site, &r.mix.to_fields());
    }
    for (site, r) in &records {
        // A copy: `hist_kinds` lends the histograms mutably.
        let mut hists = r.hists;
        for (kind, hist) in hist_kinds(&mut hists) {
            if hist.is_zero() {
                continue;
            }
            let _ = write!(
                out,
                "hist\t{}\t{}\t{kind}\t{}\t{}\t",
                site.func.0, site.line, hist.count, hist.sum
            );
            push_joined(out, ' ', &hist.buckets);
            out.push('\n');
        }
    }
    for (site, r) in records.iter().filter(|(_, r)| !r.cm.is_zero()) {
        push_site_counters(out, "cm", *site, &r.cm.to_fields());
    }
}

/// Every `hist` record kind with the histogram it names, in write order —
/// the one list the writer and the loader share.
fn hist_kinds(hists: &mut SiteHists) -> [(&'static str, &mut Hist32); 3] {
    [
        ("tx_cycles", &mut hists.tx_cycles),
        ("retry_depth", &mut hists.retry_depth),
        ("fb_dwell", &mut hists.fb_dwell),
    ]
}

/// A malformed profile file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// What failed to parse.
    pub what: String,
}

impl LoadError {
    fn bad(what: impl Into<String>) -> Self {
        LoadError { what: what.into() }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed profile: {}", self.what)
    }
}

impl std::error::Error for LoadError {}

/// The one fixed-arity numeric parser: exactly `N` `u64` fields. A field
/// that is not a number fails with `field_err`; too few or too many fail
/// with `arity_err` (a bad field wins over a bad count, wherever it sits).
fn parse_u64s<'a, const N: usize>(
    fields: impl Iterator<Item = &'a str>,
    field_err: &str,
    arity_err: &str,
) -> Result<[u64; N], LoadError> {
    let mut out = [0u64; N];
    let mut seen = 0;
    for field in fields {
        let value = field.parse().map_err(|_| LoadError::bad(field_err))?;
        if let Some(slot) = out.get_mut(seen) {
            *slot = value;
        }
        seen += 1;
    }
    if seen != N {
        return Err(LoadError::bad(arity_err));
    }
    Ok(out)
}

/// The next field parsed as `T`; `what` names it when missing or garbage.
fn next_num<T: std::str::FromStr>(fields: &mut Fields<'_>, what: &str) -> Result<T, LoadError> {
    fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| LoadError::bad(what))
}

fn parse_metrics(s: &str) -> Result<Metrics, LoadError> {
    parse_u64s(s.split(' '), "metric field", "metric arity").map(Metrics::from_fields)
}

fn site_ip(func: u64, line: u64) -> Ip {
    Ip::new(FuncId(func as u32), line as u32)
}

fn parse_key(s: &str) -> Result<Option<NodeKey>, LoadError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["root"] => Ok(None),
        ["frame", f, cf, cl, spec] => Ok(Some(NodeKey::Frame {
            func: FuncId(f.parse().map_err(|_| LoadError::bad("frame func"))?),
            callsite: Ip::new(
                FuncId(cf.parse().map_err(|_| LoadError::bad("callsite func"))?),
                cl.parse().map_err(|_| LoadError::bad("callsite line"))?,
            ),
            speculative: *spec == "1",
        })),
        ["stmt", f, l, spec] => Ok(Some(NodeKey::Stmt {
            ip: Ip::new(
                FuncId(f.parse().map_err(|_| LoadError::bad("stmt func"))?),
                l.parse().map_err(|_| LoadError::bad("stmt line"))?,
            ),
            speculative: *spec == "1",
        })),
        _ => Err(LoadError::bad("node key")),
    }
}

/// The numeric `prefix`ed field of a header line.
fn header_num(hfields: &[&str], prefix: &str) -> Result<u64, LoadError> {
    hfields
        .iter()
        .find_map(|f| f.strip_prefix(prefix))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| LoadError::bad(prefix))
}

/// Read the header line both file kinds share: `magic`, `v{version}`,
/// then `key=value` fields. Returns the fields and a profile seeded from
/// `samples=`, `truncated=` and `interrupt_aborts=`. `errs` names a
/// missing header, a wrong magic and a wrong version, in that order.
fn read_header<'a>(
    lines: &mut std::str::Lines<'a>,
    magic: &str,
    version: u32,
    errs: [&str; 3],
) -> Result<(Vec<&'a str>, Profile), LoadError> {
    let [empty, bad_magic, bad_version] = errs;
    let header = lines.next().ok_or_else(|| LoadError::bad(empty))?;
    let hfields: Vec<&str> = header.split('\t').collect();
    if hfields.first() != Some(&magic) {
        return Err(LoadError::bad(bad_magic));
    }
    let declared = hfields.get(1).and_then(|v| v.strip_prefix('v'));
    if declared.and_then(|v| v.parse().ok()) != Some(version) {
        return Err(LoadError::bad(bad_version));
    }
    let profile = Profile {
        samples: header_num(&hfields, "samples=")?,
        truncated_paths: header_num(&hfields, "truncated=")?,
        interrupt_abort_samples: header_num(&hfields, "interrupt_aborts=")?,
        ..Profile::default()
    };
    Ok((hfields, profile))
}

/// Load a profile previously produced by [`save`] (function names, if
/// present, are discarded).
pub fn load(text: &str) -> Result<Profile, LoadError> {
    load_with_funcs(text).map(|(profile, _)| profile)
}

/// Load a profile plus any `func` name records it carries.
pub fn load_with_funcs(text: &str) -> Result<(Profile, FuncNames), LoadError> {
    let mut lines = text.lines();
    let (_, mut profile) = read_header(
        &mut lines,
        "txsampler-profile",
        FORMAT_VERSION,
        ["empty file", "magic", "version"],
    )?;
    let mut funcs = FuncNames::new();
    parse_records(lines, &mut profile, &mut funcs)?;
    Ok((profile, funcs))
}

/// The fields of one record line after its tag.
type Fields<'a> = std::str::Split<'a, char>;

/// Parse every record after the header line into `profile`/`funcs` — the
/// body grammar shared by whole-profile files and delta chunks.
fn parse_records<'a>(
    lines: impl Iterator<Item = &'a str>,
    profile: &mut Profile,
    funcs: &mut FuncNames,
) -> Result<(), LoadError> {
    let l = &mut Loader {
        profile,
        funcs,
        ids: Vec::new(),
    };
    for line in lines {
        let mut fields = line.split('\t');
        match fields.next() {
            Some("") | None => {}
            Some("periods") => parse_periods(l, fields)?,
            Some("meta") => parse_meta(l, fields)?,
            Some("func") => parse_func(l, fields)?,
            Some("node") => parse_node(l, fields)?,
            Some("thread") => parse_thread(l, fields)?,
            Some("site") => parse_site(l, fields)?,
            Some(tag @ "backend") => {
                parse_counters(l, fields, tag, BackendMix::from_fields, |r| &mut r.mix)?
            }
            Some("hist") => parse_hist(l, fields)?,
            Some(tag @ "cm") => {
                parse_counters(l, fields, tag, CmStats::from_fields, |r| &mut r.cm)?
            }
            Some(tag) => return Err(LoadError::bad(tag)),
        }
    }
    Ok(())
}

/// What the record parsers fill in.
struct Loader<'p> {
    profile: &'p mut Profile,
    funcs: &'p mut FuncNames,
    /// Map from serialized node id to live node id.
    ids: Vec<u32>,
}

fn parse_periods(l: &mut Loader<'_>, fields: Fields<'_>) -> Result<(), LoadError> {
    let [cycles, commit, abort, mem] = parse_u64s(fields, "period", "period arity")?;
    l.profile.periods = Periods {
        cycles,
        commit,
        abort,
        mem,
    };
    Ok(())
}

fn parse_meta(l: &mut Loader<'_>, fields: Fields<'_>) -> Result<(), LoadError> {
    if !l.profile.meta.is_empty() {
        return Err(LoadError::bad("duplicate meta record"));
    }
    let mut meta = RunMeta::default();
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| LoadError::bad("meta field"))?;
        match key {
            "workload" if !value.is_empty() && meta.workload.is_none() => {
                meta.workload = Some(value.to_string());
            }
            "threads" if meta.threads.is_none() => {
                meta.threads = Some(value.parse().map_err(|_| LoadError::bad("meta threads"))?);
            }
            "period" if meta.sample_period.is_none() => {
                meta.sample_period =
                    Some(value.parse().map_err(|_| LoadError::bad("meta period"))?);
            }
            "fallback" if !value.is_empty() && meta.fallback.is_none() => {
                meta.fallback = Some(value.to_string());
            }
            "mix" if meta.mix.is_none() => {
                let mix = parse_u64s(value.split(':'), "meta mix", "meta mix arity")?;
                meta.mix = Some(BackendMix::from_fields(mix));
            }
            "cm" if !value.is_empty() && meta.cm.is_none() => {
                meta.cm = Some(value.to_string());
            }
            _ => return Err(LoadError::bad("meta field")),
        }
    }
    if meta.is_empty() {
        return Err(LoadError::bad("empty meta record"));
    }
    l.profile.meta = meta;
    Ok(())
}

fn parse_func(l: &mut Loader<'_>, mut fields: Fields<'_>) -> Result<(), LoadError> {
    let id: u32 = next_num(&mut fields, "func id")?;
    let name = fields.next().ok_or_else(|| LoadError::bad("func name"))?;
    if l.funcs.insert(id, name.to_string()).is_some() {
        return Err(LoadError::bad("duplicate func id"));
    }
    Ok(())
}

fn parse_node(l: &mut Loader<'_>, mut fields: Fields<'_>) -> Result<(), LoadError> {
    let id: usize = next_num(&mut fields, "node id")?;
    // Ids are the writer's visit order: strictly sequential. Anything
    // else (duplicates, gaps, reordering) means the file was corrupted
    // or hand-edited.
    if id != l.ids.len() {
        return Err(LoadError::bad("node id out of sequence"));
    }
    let parent: usize = next_num(&mut fields, "node parent")?;
    let key = parse_key(fields.next().ok_or_else(|| LoadError::bad("node key"))?)?;
    let metrics = parse_metrics(
        fields
            .next()
            .ok_or_else(|| LoadError::bad("node metrics"))?,
    )?;
    let live = match key {
        None => ROOT,
        Some(key) => {
            let parent_live = *l
                .ids
                .get(parent)
                .ok_or_else(|| LoadError::bad("forward parent reference"))?;
            l.profile.cct.child(parent_live, key)
        }
    };
    *l.profile.cct.metrics_mut(live) = metrics;
    l.ids.push(live);
    Ok(())
}

fn parse_thread(l: &mut Loader<'_>, mut fields: Fields<'_>) -> Result<(), LoadError> {
    let tid: usize = next_num(&mut fields, "thread id")?;
    // The writer emits threads in ascending id order, the order
    // `Profile::absorb_profile` binary-searches; a repeat or a step back
    // would load as a second row for one thread.
    if l.profile.threads.last().is_some_and(|t| t.tid >= tid) {
        return Err(LoadError::bad("thread id out of order"));
    }
    let totals = parse_metrics(
        fields
            .next()
            .ok_or_else(|| LoadError::bad("thread totals"))?,
    )?;
    l.profile.threads.push(ThreadSummary {
        tid,
        totals,
        sites: Default::default(),
    });
    Ok(())
}

/// A `site` record belongs to the `thread` record just before it.
fn parse_site(l: &mut Loader<'_>, fields: Fields<'_>) -> Result<(), LoadError> {
    let [tid, func, line, commits, aborts] = parse_u64s(fields, "site field", "site arity")?;
    let t = l
        .profile
        .threads
        .last_mut()
        .filter(|t| t.tid as u64 == tid)
        .ok_or_else(|| LoadError::bad("site before thread"))?;
    t.sites.insert(site_ip(func, line), (commits, aborts));
    Ok(())
}

/// One `tag func line c0 c1 …` record of a fixed-arity per-site counter
/// family (`backend`, `cm`), whose arity is that of `from_fields`. Errors
/// name the tag: `{tag} field`, `{tag} arity`, `duplicate {tag} record`,
/// `empty {tag} record`.
fn parse_counters<T: Default + PartialEq, const N: usize>(
    l: &mut Loader<'_>,
    mut fields: Fields<'_>,
    tag: &str,
    from_fields: fn([u64; N]) -> T,
    family: fn(&mut SiteRecord) -> &mut T,
) -> Result<(), LoadError> {
    let tagged = |e: LoadError| LoadError::bad(format!("{tag} {}", e.what));
    // The site and the `N` counters parse apart; a bad field still wins
    // over a bad count, since a short site part has no counters after it.
    let [func, line] = parse_u64s(fields.by_ref().take(2), "field", "arity").map_err(tagged)?;
    let counters = parse_u64s(fields, "field", "arity").map_err(tagged)?;
    let slot = family(l.profile.records.entry(site_ip(func, line)));
    if *slot != T::default() {
        return Err(LoadError::bad(format!("duplicate {tag} record")));
    }
    *slot = from_fields(counters);
    // The writer skips empty families, so an all-zero record is not
    // something `save` produced (and would defeat the duplicate check).
    if *slot == T::default() {
        return Err(LoadError::bad(format!("empty {tag} record")));
    }
    Ok(())
}

fn parse_hist(l: &mut Loader<'_>, mut fields: Fields<'_>) -> Result<(), LoadError> {
    let func: u32 = next_num(&mut fields, "hist func")?;
    let line: u32 = next_num(&mut fields, "hist line")?;
    let kind = fields.next().ok_or_else(|| LoadError::bad("hist kind"))?;
    let count: u64 = next_num(&mut fields, "hist count")?;
    let sum: u64 = next_num(&mut fields, "hist sum")?;
    let buckets: [u64; HIST_BUCKETS] = parse_u64s(
        fields
            .next()
            .ok_or_else(|| LoadError::bad("hist buckets"))?
            .split(' '),
        "hist bucket",
        "hist bucket arity",
    )?;
    if fields.next().is_some() {
        return Err(LoadError::bad("hist arity"));
    }
    if buckets.iter().sum::<u64>() != count {
        return Err(LoadError::bad("hist count mismatch"));
    }
    let hist = Hist32 {
        buckets,
        sum,
        count,
    };
    if hist.is_zero() {
        return Err(LoadError::bad("empty hist record"));
    }
    let hists = &mut l.profile.records.entry(Ip::new(FuncId(func), line)).hists;
    let (_, slot) = hist_kinds(hists)
        .into_iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| LoadError::bad("hist kind"))?;
    if !slot.is_zero() {
        return Err(LoadError::bad("duplicate hist record"));
    }
    *slot = hist;
    Ok(())
}

/// Version of the `txsampler-delta` chunk header — the *streamable*
/// extension of the store format. A delta stream is a sequence of
/// self-contained chunks, each carrying only the profile records (and
/// func-name records) for activity inside one epoch range; applying the
/// chunks in order reproduces the cumulative profile. Chunk bodies use the
/// exact v[`FORMAT_VERSION`] record grammar, so every body parser is
/// shared with whole-profile files.
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// One parsed delta chunk (see [`DELTA_FORMAT_VERSION`]).
#[derive(Debug, Clone)]
pub struct DeltaChunk {
    /// Epoch this chunk's activity starts after (0 for a full resync).
    pub since: u64,
    /// Epoch this chunk's activity runs up to.
    pub to: u64,
    /// Whether the chunk is a full resync (replace, don't accumulate).
    pub full: bool,
    /// The profile fragment covering `(since, to]` — or the whole
    /// cumulative profile when `full`.
    pub profile: Profile,
    /// Func-name records referenced by this chunk's fragment.
    pub funcs: FuncNames,
}

/// Serialize one delta chunk. `full` marks a resync chunk whose `profile`
/// is the entire cumulative snapshot. Only functions referenced by the
/// fragment (and resolvable through `name_of`) get `func` records — a
/// steady-state delta therefore re-ships only the names its own new
/// activity touches, not the whole symbol table.
pub fn save_delta_with_names(
    profile: &Profile,
    since: u64,
    to: u64,
    full: bool,
    name_of: &dyn Fn(FuncId) -> Option<String>,
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "txsampler-delta\tv{DELTA_FORMAT_VERSION}\tsince={since}\tto={to}\tkind={}\tsamples={}\ttruncated={}\tinterrupt_aborts={}",
        if full { "full" } else { "delta" },
        profile.samples,
        profile.truncated_paths,
        profile.interrupt_abort_samples
    )
    .unwrap();
    write_records(&mut out, profile, name_of);
    out
}

/// [`save_delta_with_names`] resolving names from a live [`FuncRegistry`].
pub fn save_delta_with_funcs(
    profile: &Profile,
    since: u64,
    to: u64,
    full: bool,
    registry: &FuncRegistry,
) -> String {
    save_delta_with_names(profile, since, to, full, &|id| {
        registry.resolve(id).map(|f| f.name)
    })
}

/// Parse one delta chunk produced by [`save_delta_with_names`].
pub fn load_delta(text: &str) -> Result<DeltaChunk, LoadError> {
    let mut lines = text.lines();
    let (hfields, mut profile) = read_header(
        &mut lines,
        "txsampler-delta",
        DELTA_FORMAT_VERSION,
        ["empty chunk", "delta magic", "delta version"],
    )?;
    let since = header_num(&hfields, "since=")?;
    let to = header_num(&hfields, "to=")?;
    let full = match hfields.iter().find_map(|f| f.strip_prefix("kind=")) {
        Some("full") => true,
        Some("delta") => false,
        _ => return Err(LoadError::bad("delta kind")),
    };
    if since > to {
        return Err(LoadError::bad("delta range"));
    }
    let mut funcs = FuncNames::new();
    parse_records(lines, &mut profile, &mut funcs)?;
    Ok(DeltaChunk {
        since,
        to,
        full,
        profile,
        funcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimeComponent;

    fn sample_profile() -> Profile {
        let mut p = Profile {
            samples: 123,
            truncated_paths: 4,
            interrupt_abort_samples: 7,
            periods: Periods {
                cycles: 50_000,
                commit: 1009,
                abort: 13,
                mem: 5003,
            },
            ..Profile::default()
        };
        let frame = p.cct.child(
            ROOT,
            NodeKey::Frame {
                func: FuncId(3),
                callsite: Ip::new(FuncId(1), 42),
                speculative: false,
            },
        );
        let spec = p.cct.child(
            frame,
            NodeKey::Frame {
                func: FuncId(9),
                callsite: Ip::new(FuncId(3), 50),
                speculative: true,
            },
        );
        let leaf = p.cct.child(
            spec,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(9), 55),
                speculative: true,
            },
        );
        for _ in 0..11 {
            p.cct.metrics_mut(leaf).add_cycles_sample(TimeComponent::Tx);
        }
        p.cct.metrics_mut(leaf).abort_samples = 3;
        p.cct.metrics_mut(leaf).abort_weight = 999;
        p.cct.metrics_mut(leaf).aborts_capacity = 3;
        p.cct.metrics_mut(leaf).capacity_weight = 999;
        p.threads.push(ThreadSummary {
            tid: 0,
            totals: *p.cct.metrics(leaf),
            sites: [(Ip::new(FuncId(1), 42), (10, 2))].into_iter().collect(),
        });
        p.threads.push(ThreadSummary {
            tid: 5,
            totals: Metrics::default(),
            sites: Default::default(),
        });
        p
    }

    /// `sample_profile()` grown to carry every record kind the format has
    /// — the profile `tests/golden/store_v6.txsp` was saved from.
    fn full_profile() -> Profile {
        let mut p = sample_profile();
        p.meta = RunMeta {
            workload: Some("golden".to_string()),
            threads: Some(2),
            sample_period: Some(50_000),
            fallback: Some("adaptive".to_string()),
            mix: Some(BackendMix::from_fields([7, 5, 3, 2])),
            cm: Some("karma".to_string()),
        };
        let hot = Ip::new(FuncId(9), 55);
        let entry = Ip::new(FuncId(1), 42);
        let mid = Ip::new(FuncId(3), 50);
        p.threads[0].sites.insert(mid, (4, 1));
        p.threads[0].sites.insert(hot, (0, 3));
        p.threads[1].sites.insert(hot, (6, 0));
        p.records.entry(entry).mix = BackendMix::from_fields([7, 0, 0, 0]);
        p.records.entry(hot).mix = BackendMix::from_fields([0, 5, 3, 2]);
        let h = &mut p.records.entry(hot).hists;
        h.record_completion(100, 1, None);
        h.record_completion(9000, 7, Some(4000));
        h.record_completion(70_000, 40, Some(65_000));
        p.records.entry(entry).hists.record_completion(64, 2, None);
        p.records.entry(hot).cm = CmStats::from_fields([11, 4, 0, 2]);
        p.records.entry(mid).cm = CmStats::from_fields([0, 0, 3, 0]);
        p
    }

    fn golden_names() -> FuncNames {
        [(1, "main"), (3, "work"), (9, "hot")]
            .into_iter()
            .map(|(id, name)| (id, name.to_string()))
            .collect()
    }

    /// The golden was written by the last commit before the per-site
    /// families and the field lists were unified: the refactored writer
    /// must produce it byte for byte, and loading it must lose nothing.
    #[test]
    fn golden_v6_file_is_what_save_writes_and_a_fixed_point_of_load() {
        let golden = include_str!("../tests/golden/store_v6.txsp");
        let names = golden_names();
        let written = save_with_names(&full_profile(), &|id| names.get(&id.0).cloned());
        assert_eq!(written, golden);
        let (loaded, loaded_names) = load_with_funcs(golden).expect("golden loads");
        assert_eq!(loaded_names, names);
        assert_eq!(loaded.records, full_profile().records);
        let again = save_with_names(&loaded, &|id| loaded_names.get(&id.0).cloned());
        assert_eq!(again, golden);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_profile();
        let text = save(&p);
        let q = load(&text).expect("roundtrip");
        assert_eq!(q.samples, p.samples);
        assert_eq!(q.truncated_paths, p.truncated_paths);
        assert_eq!(q.interrupt_abort_samples, p.interrupt_abort_samples);
        assert_eq!(q.periods, p.periods);
        assert_eq!(q.cct.len(), p.cct.len());
        assert_eq!(q.totals(), p.totals());
        assert_eq!(q.threads.len(), 2);
        assert_eq!(q.threads[0].sites, p.threads[0].sites);
        // Structure: the speculative chain survives.
        let leaf = q
            .cct
            .find(|k| matches!(k, NodeKey::Stmt { ip, .. } if ip.line == 55))
            .expect("leaf survives");
        assert_eq!(q.cct.path_to(leaf).len(), 3);
    }

    #[test]
    fn save_is_stable_under_roundtrip() {
        // Enough sites per thread that hash order and sorted order differ:
        // `site` records are written sorted, like every other record.
        let mut p = full_profile();
        for line in 0..16 {
            p.threads[1]
                .sites
                .insert(Ip::new(FuncId(20 - line), line), (1, 0));
        }
        let text = save(&p);
        let text2 = save(&load(&text).unwrap());
        assert_eq!(text, text2, "save∘load must be idempotent");
        let sites: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("site\t5\t"))
            .collect();
        assert_eq!(sites.len(), 17);
        assert_eq!(sites[0], "site\t5\t5\t15\t1\t0");
        assert_eq!(sites[16], "site\t5\t20\t0\t1\t0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(load("").is_err());
        assert!(load("not-a-profile\tv1").is_err());
        assert!(
            load("txsampler-profile\tv99\tsamples=0\ttruncated=0\tinterrupt_aborts=0").is_err()
        );
        let p = sample_profile();
        let mut text = save(&p);
        text.push_str("\ngibberish\tline\n");
        assert!(load(&text).is_err());
    }

    #[test]
    fn empty_profile_roundtrips() {
        let p = Profile::default();
        let q = load(&save(&p)).unwrap();
        assert_eq!(q.cct.len(), 1);
        assert_eq!(q.samples, 0);
    }

    #[test]
    fn rejects_truncated_input() {
        let text = save(&sample_profile());
        // Chopping the file anywhere inside a record must fail, never
        // silently load a partial profile.
        let cut = text.len() - 7;
        assert!(load(&text[..cut]).is_err(), "truncated tail must error");
        let first_node = text.find("\nnode").unwrap() + 20;
        assert!(load(&text[..first_node]).is_err());
    }

    #[test]
    fn rejects_out_of_sequence_node_ids() {
        let text = save(&sample_profile());
        // Duplicate a node line: its id repeats, which the loader must
        // reject instead of double-counting metrics.
        let node_line = text
            .lines()
            .find(|l| l.starts_with("node\t1\t"))
            .unwrap()
            .to_string();
        let dup = text.replace(&node_line, &format!("{node_line}\n{node_line}"));
        let err = load(&dup).unwrap_err();
        assert!(err.what.contains("node id"), "got: {err}");
        // A gap (skipped id) is equally malformed.
        let gapped = text.replace("node\t1\t", "node\t5\t");
        assert!(load(&gapped).is_err());
    }

    #[test]
    fn meta_roundtrips() {
        let mut p = sample_profile();
        p.meta = RunMeta {
            workload: Some("histo".to_string()),
            threads: Some(14),
            sample_period: Some(1000),
            fallback: Some("stm".to_string()),
            mix: None,
            cm: None,
        };
        let text = save(&p);
        assert!(text.contains("meta\tworkload=histo\tthreads=14\tperiod=1000\tfallback=stm"));
        let q = load(&text).expect("v4 roundtrip");
        assert_eq!(q.meta, p.meta);
        // save∘load stays byte-stable with meta present.
        assert_eq!(save(&q), text);

        // Partial provenance: absent fields are simply omitted.
        let mut partial = sample_profile();
        partial.threads.clear();
        partial.meta.threads = Some(8);
        let text = save(&partial);
        assert!(text.contains("meta\tthreads=8\n"));
        assert_eq!(load(&text).unwrap().meta, partial.meta);

        // No provenance → no meta record at all (and none comes back).
        let bare = save(&sample_profile());
        assert!(!bare.contains("\nmeta"));
        assert!(load(&bare).unwrap().meta.is_empty());
    }

    #[test]
    fn rejects_wrong_metric_arity() {
        let text = save(&sample_profile());
        let thread = text
            .lines()
            .find(|l| l.starts_with("thread\t0\t"))
            .unwrap()
            .to_string();
        // 20 fields (one chopped — what a pre-v3 writer's 18 looked like
        // too), 22 fields, and a non-numeric field are all malformed.
        let chopped = thread.rsplit_once(' ').unwrap().0;
        assert_eq!(
            load(&text.replace(&thread, chopped)).unwrap_err().what,
            "metric arity"
        );
        assert_eq!(
            load(&text.replace(&thread, &format!("{thread} 0")))
                .unwrap_err()
                .what,
            "metric arity"
        );
        assert_eq!(
            load(&text.replace(&thread, &format!("{chopped} x")))
                .unwrap_err()
                .what,
            "metric field"
        );
    }

    #[test]
    fn fallback_meta_alone_roundtrips() {
        let mut p = sample_profile();
        p.meta.fallback = Some("lock".to_string());
        let text = save(&p);
        assert!(text.contains("meta\tfallback=lock\n"));
        let q = load(&text).expect("fallback-only meta");
        assert_eq!(q.meta.fallback.as_deref(), Some("lock"));
        // Duplicate or empty values are malformed.
        assert!(load(&text.replace("fallback=lock", "fallback=")).is_err());
        assert!(load(&text.replace("fallback=lock", "fallback=lock\tfallback=stm")).is_err());
    }

    #[test]
    fn rejects_truncated_or_garbage_meta() {
        let mut p = sample_profile();
        p.meta.workload = Some("histo".to_string());
        p.meta.threads = Some(14);
        let text = save(&p);
        // Truncated mid-value: `threads=1` still parses as a number, but
        // chopping into the key must fail.
        let cut = text.find("\tthreads=14").unwrap();
        let truncated = format!(
            "{}\tthr\n{}",
            &text[..cut],
            text.split_once('\n').unwrap().1
        );
        assert!(load(&truncated).is_err(), "truncated meta key must error");
        // Garbage values and unknown keys are rejected, not ignored.
        assert!(load(&text.replace("threads=14", "threads=lots")).is_err());
        assert!(load(&text.replace("threads=14", "cores=14")).is_err());
        assert!(load(&text.replace("threads=14", "threads")).is_err());
        // Duplicate meta records (or duplicate keys) are malformed.
        let meta_line = "meta\tworkload=histo\tthreads=14";
        let dup = text.replace(meta_line, &format!("{meta_line}\n{meta_line}"));
        assert!(load(&dup).is_err());
        assert!(load(&text.replace("\tthreads=14", "\tthreads=14\tthreads=14")).is_err());
        // An empty meta record carries nothing and is rejected.
        assert!(load(&text.replace(meta_line, "meta")).is_err());
    }

    #[test]
    fn v4_mix_and_backend_records_roundtrip() {
        let mut p = sample_profile();
        p.meta.fallback = Some("adaptive".to_string());
        p.meta.mix = Some(BackendMix {
            lock: 7,
            stm: 5,
            hle: 3,
            switches: 2,
        });
        p.records.entry(Ip::new(FuncId(1), 42)).mix = BackendMix {
            lock: 7,
            stm: 0,
            hle: 0,
            switches: 0,
        };
        p.records.entry(Ip::new(FuncId(9), 55)).mix = BackendMix {
            lock: 0,
            stm: 5,
            hle: 3,
            switches: 2,
        };
        let text = save(&p);
        assert!(text.contains("fallback=adaptive\tmix=7:5:3:2"));
        assert!(text.contains("backend\t1\t42\t7\t0\t0\t0\n"));
        assert!(text.contains("backend\t9\t55\t0\t5\t3\t2\n"));
        let q = load(&text).expect("v4 roundtrip");
        assert_eq!(q.meta.mix, p.meta.mix);
        assert_eq!(q.records, p.records);
        assert_eq!(q.backend_totals().total(), 15);
        // save∘load stays byte-stable with mix records present.
        assert_eq!(save(&q), text);
        // Func records cover backend-only sites.
        let names: FuncNames = [(9, "hot".to_string())].into_iter().collect();
        assert!(save_with_names(&p, &|id| names.get(&id.0).cloned()).contains("func\t9\thot"));
    }

    #[test]
    fn rejects_malformed_mix_and_backend_records() {
        let mut p = sample_profile();
        p.meta.mix = Some(BackendMix::from_fields([1, 2, 3, 4]));
        p.records.entry(Ip::new(FuncId(1), 42)).mix.lock = 5;
        let text = save(&p);
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3")).is_err());
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3:x")).is_err());
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3:4\tmix=1:2:3:4")).is_err());
        let backend_line = "backend\t1\t42\t5\t0\t0\t0";
        assert!(load(&text.replace(backend_line, "backend\t1\t42\t5\t0\t0")).is_err());
        assert!(load(&text.replace(backend_line, "backend\t1\t42\t5\t0\t0\tx")).is_err());
        let dup = text.replace(backend_line, &format!("{backend_line}\n{backend_line}"));
        assert!(load(&dup).is_err(), "duplicate site must be rejected");
        // An all-zero record is rejected like empty hist/cm records: the
        // writer never emits one.
        let zero = text.replace(backend_line, "backend\t1\t42\t0\t0\t0\t0");
        assert_eq!(load(&zero).unwrap_err().what, "empty backend record");
    }

    #[test]
    fn v5_hist_records_roundtrip() {
        let mut p = sample_profile();
        let site = Ip::new(FuncId(9), 55);
        let h = &mut p.records.entry(site).hists;
        h.record_completion(100, 1, None);
        h.record_completion(9000, 7, Some(4000));
        let other = Ip::new(FuncId(1), 42);
        p.records.entry(other).hists.record_completion(64, 2, None);
        let text = save(&p);
        assert!(text.contains("hist\t1\t42\ttx_cycles\t1\t64\t"));
        assert!(text.contains("hist\t9\t55\tretry_depth\t2\t8\t"));
        assert!(text.contains("hist\t9\t55\tfb_dwell\t1\t4000\t"));
        // fb_dwell never recorded for the other site → no record at all.
        assert!(!text.contains("hist\t1\t42\tfb_dwell"));
        let q = load(&text).expect("v5 roundtrip");
        assert_eq!(q.records, p.records);
        let h = q.records.get(site).unwrap().hists;
        assert_eq!((h.tx_cycles.count, h.tx_cycles.sum), (2, 9100));
        // A hist-only site grows no backend or cm record.
        assert!(!text.contains("\nbackend\t") && !text.contains("\ncm\t"));
        // save∘load stays byte-stable with hist records present.
        assert_eq!(save(&q), text);
        // Func records cover hist-only sites.
        let mut bare = sample_profile();
        bare.cct = Default::default();
        bare.threads.clear();
        bare.records.entry(Ip::new(FuncId(77), 1)).hists = h;
        let names: FuncNames = [(77, "starved".to_string())].into_iter().collect();
        assert!(
            save_with_names(&bare, &|id| names.get(&id.0).cloned()).contains("func\t77\tstarved")
        );
        // Hist records ride delta chunks through the shared body grammar.
        let chunk = load_delta(&save_delta_with_names(&p, 0, 3, false, &|_| None))
            .expect("delta with hists");
        assert_eq!(chunk.profile.records, p.records);
    }

    #[test]
    fn rejects_malformed_hist_records() {
        let mut p = sample_profile();
        p.records
            .entry(Ip::new(FuncId(9), 55))
            .hists
            .record_completion(2, 1, None);
        let text = save(&p);
        let line = text
            .lines()
            .find(|l| l.starts_with("hist\t9\t55\ttx_cycles"))
            .unwrap()
            .to_string();
        // Unknown kind, bad bucket arity, count/bucket mismatch, garbage
        // values, duplicates — all rejected.
        assert!(load(&text.replace("\ttx_cycles\t", "\tbananas\t")).is_err());
        assert!(load(&text.replace(&line, line.trim_end_matches(" 0"))).is_err());
        assert!(load(&text.replace(&line, &format!("{line} 0"))).is_err());
        assert!(load(&text.replace("tx_cycles\t1\t2", "tx_cycles\t9\t2")).is_err());
        assert!(load(&text.replace("tx_cycles\t1\t2", "tx_cycles\tx\t2")).is_err());
        let dup = text.replace(&line, &format!("{line}\n{line}"));
        assert!(load(&dup).is_err(), "duplicate hist must be rejected");
    }

    #[test]
    fn v6_cm_records_roundtrip() {
        let mut p = sample_profile();
        p.meta.fallback = Some("stm".to_string());
        p.meta.cm = Some("karma".to_string());
        p.records.entry(Ip::new(FuncId(9), 55)).cm = CmStats {
            yields: 11,
            stalls: 4,
            escalations: 0,
            priority_aborts: 2,
        };
        p.records.entry(Ip::new(FuncId(1), 42)).cm.escalations = 3;
        // All-zero entries are skipped on save, like empty histograms.
        p.records.entry(Ip::new(FuncId(2), 1));
        let text = save(&p);
        assert!(text.contains("fallback=stm\tcm=karma"));
        assert!(text.contains("cm\t1\t42\t0\t0\t3\t0\n"));
        assert!(text.contains("cm\t9\t55\t11\t4\t0\t2\n"));
        assert!(!text.contains("cm\t2\t1\t"));
        let q = load(&text).expect("v6 roundtrip");
        assert_eq!(q.meta.cm.as_deref(), Some("karma"));
        assert_eq!(q.records.get(Ip::new(FuncId(9), 55)).unwrap().cm.yields, 11);
        assert_eq!(q.cm_totals().total(), 20);
        // save∘load stays byte-stable with cm records present.
        assert_eq!(save(&q), text);
        // Func records cover cm-only sites.
        let mut bare = sample_profile();
        bare.cct = Default::default();
        bare.threads.clear();
        bare.records.entry(Ip::new(FuncId(88), 1)).cm.yields = 1;
        let names: FuncNames = [(88, "writer".to_string())].into_iter().collect();
        assert!(
            save_with_names(&bare, &|id| names.get(&id.0).cloned()).contains("func\t88\twriter")
        );
        // Cm records ride delta chunks through the shared body grammar.
        let chunk =
            load_delta(&save_delta_with_names(&p, 0, 3, false, &|_| None)).expect("delta with cm");
        assert_eq!(
            chunk.profile.records.sorted().len(),
            2,
            "zero entry dropped"
        );
        assert_eq!(chunk.profile.meta.cm.as_deref(), Some("karma"));
    }

    #[test]
    fn rejects_malformed_cm_records() {
        let mut p = sample_profile();
        p.meta.cm = Some("karma".to_string());
        p.records.entry(Ip::new(FuncId(9), 55)).cm.yields = 5;
        let text = save(&p);
        let line = "cm\t9\t55\t5\t0\t0\t0";
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\t0\t0\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\tx\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t0\t0\t0\t0")).is_err());
        let dup = text.replace(line, &format!("{line}\n{line}"));
        assert!(load(&dup).is_err(), "duplicate cm site must be rejected");
        // Empty or duplicate cm= meta values are malformed.
        assert!(load(&text.replace("cm=karma", "cm=")).is_err());
        assert!(load(&text.replace("cm=karma", "cm=karma\tcm=karma")).is_err());
    }

    #[test]
    fn rejects_unknown_versions() {
        let text = save(&sample_profile());
        // The store reads exactly the version it writes: older and newer
        // headers fail closed, not as a partial load.
        for version in ["v0", "v1", "v2", "v3", "v4", "v5", "v7", "v99", "something"] {
            let err = load(&text.replacen("\tv6\t", &format!("\t{version}\t"), 1)).unwrap_err();
            assert_eq!(err.what, "version", "{version}");
        }
    }

    /// `save(&sample_profile())` with its `thread 0`, `site 0 …` and
    /// `thread 5` lines (indices 0, 1, 2 of `order`) rearranged.
    fn reorder_threads(order: &[usize]) -> String {
        let text = save(&sample_profile());
        let lines: Vec<&str> = text.lines().collect();
        let first = lines
            .iter()
            .position(|l| l.starts_with("thread\t"))
            .unwrap();
        let block = &lines[first..first + 3];
        assert!(block[1].starts_with("site\t0\t") && block[2].starts_with("thread\t5\t"));
        let mut out = lines[..first].to_vec();
        out.extend(order.iter().map(|&i| block[i]));
        out.extend(&lines[first + 3..]);
        out.join("\n") + "\n"
    }

    #[test]
    fn rejects_duplicate_thread_ids() {
        assert!(load(&reorder_threads(&[0, 1, 2])).is_ok());
        // A repeated tid would load as a second row for one thread.
        let dup = reorder_threads(&[0, 1, 0, 2]);
        assert_eq!(load(&dup).unwrap_err().what, "thread id out of order");
    }

    #[test]
    fn rejects_descending_thread_ids() {
        let descending = reorder_threads(&[2, 0, 1]);
        assert_eq!(
            load(&descending).unwrap_err().what,
            "thread id out of order"
        );
        // Delta chunks share the body grammar: a full chunk with unsorted
        // threads never reaches an aggregator's binary search.
        let chunk = save_delta_with_names(&sample_profile(), 0, 1, true, &|_| None);
        let (header, _) = chunk.split_once('\n').unwrap();
        let (_, body) = descending.split_once('\n').unwrap();
        let err = load_delta(&format!("{header}\n{body}")).unwrap_err();
        assert_eq!(err.what, "thread id out of order");
    }

    #[test]
    fn rejects_site_records_for_an_earlier_thread() {
        // A site record belongs to the thread record just before it.
        let late_site = reorder_threads(&[0, 2, 1]);
        assert_eq!(load(&late_site).unwrap_err().what, "site before thread");
    }

    #[test]
    fn delta_chunks_roundtrip_and_validate() {
        let p = sample_profile();
        let names: FuncNames = [(1, "main".to_string()), (3, "work".to_string())]
            .into_iter()
            .collect();
        let text = save_delta_with_names(&p, 4, 9, false, &|id| names.get(&id.0).cloned());
        assert!(text.starts_with("txsampler-delta\tv1\tsince=4\tto=9\tkind=delta\t"));
        let chunk = load_delta(&text).expect("delta roundtrip");
        assert_eq!((chunk.since, chunk.to, chunk.full), (4, 9, false));
        assert_eq!(chunk.profile.totals(), p.totals());
        assert_eq!(chunk.profile.samples, p.samples);
        assert_eq!(chunk.funcs, names);
        // Full-resync chunks carry the flag through.
        let full = load_delta(&save_delta_with_names(&p, 0, 9, true, &|_| None)).unwrap();
        assert!(full.full && full.funcs.is_empty());
        // A delta chunk is not a profile file and vice versa.
        assert!(load(&text).is_err());
        assert!(load_delta(&save(&p)).is_err());
        // Malformed headers are rejected: bad kind, inverted range,
        // unknown version, truncated body.
        assert!(load_delta(&text.replace("kind=delta", "kind=banana")).is_err());
        assert!(load_delta(&text.replace("since=4", "since=99")).is_err());
        assert!(load_delta(&text.replace("\tv1\t", "\tv9\t")).is_err());
        assert!(load_delta(&text[..text.len() - 5]).is_err());
    }

    #[test]
    fn func_records_roundtrip_and_stay_optional() {
        let p = sample_profile();
        let names: FuncNames = [(1, "main".to_string()), (3, "work".to_string())]
            .into_iter()
            .collect();
        let text = save_with_names(&p, &|id| names.get(&id.0).cloned());
        assert!(text.contains("func\t1\tmain"));
        let (q, loaded) = load_with_funcs(&text).expect("roundtrip");
        assert_eq!(q.totals(), p.totals());
        assert_eq!(loaded, names);
        // Saving the loaded copy with the loaded names is byte-stable.
        let text2 = save_with_names(&q, &|id| loaded.get(&id.0).cloned());
        assert_eq!(text, text2);
        // Plain save never emits func records (legacy shape preserved).
        assert!(!save(&p).contains("func\t"));
        // Duplicate func ids are rejected.
        let dup = text.replace("func\t1\tmain", "func\t1\tmain\nfunc\t1\tother");
        assert!(load(&dup).is_err());
    }
}
