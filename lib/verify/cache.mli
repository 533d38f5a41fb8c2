(** On-disk content-addressed certificate cache.

    Every verdict the checkers produce is a pure function of its inputs
    — layer interfaces, implementation, scheduler suite, engine
    configuration, fuel — so it can be memoized under a
    {!Ccal_core.Fingerprint} of those inputs (DESIGN "Certificate
    cache").  The store is one file per verdict, named
    [<kind>-<fingerprint>.v<format>] in a cache directory; payloads are
    [Marshal]ed OCaml values behind a magic header.

    Policies, enforced here and in the checker kernel's memo
    ({!Check.memo}):
    {ul
    {- {e Failures are never cached.}  Checkers only store successful
       verdicts, so a failing edge always re-runs live and reproduces
       its counterexample from the real game, never from disk.}
    {- {e Corruption is a miss.}  A truncated, bad-magic, or
       undeserializable entry is deleted and counted as an
       invalidation; the caller re-runs as if the entry never existed.}
    {- {e Writes are atomic.}  Entries are written to a temp file in
       the cache directory and [rename]d into place, so concurrent
       writers and crashes leave either the old entry or the new one,
       never a torn file.}
    {- {e [jobs] is never part of a key.}  Verdicts are bit-identical
       across jobs counts (DESIGN "Parallel checking"), so a cache
       populated under [-j 7] serves hits under [-j 1].}}

    Session counters are mirrored into the {!Ccal_core.Probe} counters
    [cache.hits] / [cache.misses] / [cache.invalidations], so
    [--stats]/[--trace] telemetry sees cache behaviour; the always-on
    copies in {!session_stats} feed [ccal cache stats] and the tests
    without requiring the telemetry switch. *)

open Ccal_core

type t
(** A handle on one cache directory, with session counters. *)

val default_dir : unit -> string
(** [$CCAL_CACHE_DIR] when set and non-empty; otherwise
    [$XDG_CACHE_HOME/ccal]; otherwise [$HOME/.cache/ccal]. *)

val create : ?dir:string -> unit -> t
(** Open (creating directories as needed) the store at [dir] (default
    {!default_dir}).  Raises [Sys_error] if the directory cannot be
    created or is not writable. *)

val dir : t -> string

type 'a kind
(** The payload type of one family of entries, with its name.  Each
    checker creates its kind once, next to the payload type, so no call
    site annotates what [Marshal] reads back.  The name is the filename
    prefix, so a fingerprint collision across kinds cannot type-confuse
    [Marshal]. *)

val kind : string -> 'a kind
(** [kind name] — call once per payload type, at module initialisation.
    Raises [Invalid_argument] when [name] is already taken.  The name
    carries the payload's version: a payload that changes shape takes a
    new name (e.g. ["engine.2"]), so entries of the earlier shape miss
    instead of being [Marshal]-read at the new type. *)

val find : t -> 'a kind -> Fingerprint.t -> 'a option
(** Look up the entry of that kind and key.  Absent entries count a
    miss; present entries count a hit; corrupt entries are deleted,
    count an invalidation {e and} a miss, and return [None]. *)

val invalidate : t -> 'a kind -> Fingerprint.t -> unit
(** Drop the entry (if present) and count an invalidation.  Callers use
    this when an entry deserializes but fails an integrity check — e.g.
    a stored report whose recorded log hash no longer matches its
    logs. *)

val store : t -> 'a kind -> Fingerprint.t -> 'a -> unit
(** Write the entry atomically (temp file + rename).  Best-effort: an
    unwritable directory drops the write silently — the cache never
    turns a passing verification into a failure. *)

type session = { hits : int; misses : int; invalidations : int; stores : int }

val session_stats : t -> session
(** Counters accumulated through this handle (always on, unlike the
    mirrored [Probe] counters which record only under telemetry). *)

type disk = { entries : int; bytes : int }

val disk_stats : t -> disk
(** Entry count and total size on disk (all format versions). *)

val clear : t -> int
(** Delete all cache entries; returns how many were removed. *)

val format_version : int
(** On-disk format version, part of both the magic header and the
    filename; bumping it (or {!Fingerprint.version}) orphans every
    existing entry. *)
