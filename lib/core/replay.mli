(** Replay functions.

    All shared abstract state in CCAL is represented by the global log;
    functions that reconstruct the current shared state from the log are
    called {e replay functions} (Sec. 2).  [Rticket] (lock state from
    [FAI_t]/[inc_n] events), [Rshared] (push/pull ownership, Fig. 8) and
    [Rsched] (currently-running thread, Sec. 5.1) are all instances.

    A replay function may be partial: replaying an ill-formed log (e.g. a
    racy push/pull sequence) gets stuck, which is exactly how the paper's
    machines detect data races. *)

type 'a t = Log.t -> ('a, string) result
(** A replay function reconstructing a shared state of type ['a], or
    [Error reason] if the log is ill-formed (the machine is stuck). *)

val fold : init:'a -> step:('a -> Event.t -> ('a, string) result) -> 'a t
(** [fold ~init ~step] replays the log chronologically from [init],
    applying [step] to each event; the oldest failing event's error is
    the result.  This is the shape of every replay function in the paper
    (Fig. 8 is a right fold on the log).

    Each call of [fold] builds one fold value with its own key.  Inside a
    game ({!with_memo}) the value remembers the log it last replayed and
    the state it reached: a call on a log that extends that one folds only
    the new events.  Any other call refolds from [init], with the same
    result.  [step] must be pure.  Build a fold once and apply it many
    times — a fold built per call never hits the memo. *)

val per_object :
  obj:(Event.t -> int option) ->
  init:'a ->
  step:(int -> 'a -> Event.t -> ('a, string) result) ->
  int ->
  'a t
(** [per_object ~obj ~init ~step] is one keyed fold over every object at
    once, projected to one object: [per_object ~obj ~init ~step b l]
    replays object [b] from [init] through the events [obj] routes to
    [b].  Errors are per object: a stuck object stays stuck and leaves
    the others replaying.  Partially apply it once per module. *)

val with_memo : (unit -> 'a) -> 'a
(** [with_memo f] runs [f] (one game) with a fresh memo on the current
    domain and drops the memo when [f] returns or raises, so no folded
    state outlives the game.  Outside it, every fold refolds from
    scratch. *)

val from_scratch : (unit -> 'a) -> 'a
(** [from_scratch f] runs [f] with the memo switched off, games
    included: every fold refolds the whole log.  The reference the
    incremental replay is tested against. *)

val pure : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val both : 'a t -> 'b t -> ('a * 'b) t
(** Replay two shared states from the same log. *)

val run_exn : 'a t -> Log.t -> 'a
(** Like application, but raises [Failure] on stuck replays; for tests. *)

val well_formed : 'a t -> Log.t -> bool
(** [well_formed r l] holds iff replaying [l] does not get stuck. *)
