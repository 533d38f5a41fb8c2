(** The checker kernel (DESIGN.md S33).

    Every rule of the layer calculus is discharged the same way in this
    bounded stand-in for the paper's proofs: enumerate schedules, replay
    the game under each, fold the results up to the first failure, and
    memoize only successes.  The checkers (Races, Linearizability,
    Progress, Crash, Explore, Dpor, Stack, Kv_stack) state {e what} they
    check per schedule or per edge; this module owns {e how}: the
    budgeted, jobs-deterministic scan, the success-only cache and the
    budget-polled edge loop. *)

open Ccal_core

val scan :
  ctx:Ctx.t ->
  cost:('b -> int) ->
  ?cut:('b -> bool) ->
  (stop:(unit -> bool) option -> 'a -> 'b option) ->
  'a list ->
  init:'acc ->
  ('acc -> 'b -> 'acc) ->
  'acc Budget.outcome
(** [scan ~ctx ~cost ~cut body xs ~init fold] runs [body] over [xs] with
    {!Parallel.budgeted_scan} under [ctx.jobs] and [ctx.token], and folds
    the surviving prefix in index order.  [body] gets the game stop
    closure of the budget and returns [None] when that closure
    interrupted it.  The scan ends after the lowest-indexed outcome
    satisfying [cut] (default: none), which is folded.  The result is
    [Complete] unless the budget ran out, in which case it is [Exhausted]
    with the fold of the prefix that did finish; under a pure step budget
    that prefix is the same for every jobs count.  [cost] is what an
    outcome charges to the step budget. *)

val game : Game.config -> Game.outcome option
(** [Game.replay], or [None] when the budget's stop closure cancelled
    the game: the usual body of a {!scan}. *)

val memo :
  Cache.t option ->
  'a Cache.kind ->
  key:Fingerprint.t Lazy.t ->
  ?valid:('a -> bool) ->
  keep:('r -> 'a option) ->
  hit:('a -> float -> 'r) ->
  (unit -> 'r) ->
  'r
(** [memo cache kind ~key ~valid ~keep ~hit run] is [run ()] memoized
    under [kind] and [key].  Without a cache, [run ()] is returned and
    [key] is never forced.  With one, a stored entry passing [valid]
    (default: every entry) is a hit, returned as [hit entry lookup_ms];
    an entry failing [valid] is invalidated and recomputed.  After a
    miss, [keep result] is the payload to store: checkers return [None]
    for failures (which must reproduce live) and for exhausted runs
    (whose prefix is not the verdict), so only successes are stored. *)

val finished : 'a Budget.outcome -> 'a option
(** [Some v] for [Complete v]; [None] when the budget ran out. *)

val edges :
  ctx:Ctx.t ->
  name:('s -> string) ->
  ('s -> ('e, 'f) result option) ->
  's list ->
  ('e list * string option, 'f) result Budget.outcome
(** [edges ~ctx ~name run specs] runs the edges in order, polling
    [ctx.token] between them.  [run s] is [None] when the budget stopped
    edge [s].  The first failure ends the loop as [Complete (Error f)].
    When the budget runs out, before an edge or inside it, the result is
    [Exhausted] with the completed edges and, as the frontier, the name
    of the first edge that did not complete; a half-checked edge never
    appears among the completed ones.  [Complete (Ok (edges, None))] when
    every edge passed. *)
