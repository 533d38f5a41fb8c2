(** Schedulers.

    The scheduler acts as the judge of the concurrency game: at each round
    it picks one participant to make a move (Sec. 2).  The behaviour of a
    whole layer machine is the set of logs generated under all possible
    schedulers; experiments therefore run suites of schedulers: round-robin,
    seeded pseudo-random (both fair), and explicit traces used by the
    exhaustive interleaving enumerator of the verification harness. *)

type t = {
  name : string;
  pick : step:int -> Log.t -> runnable:Event.tid list -> Event.tid option;
      (** choose the next mover among [runnable] (never empty); [None]
          means the scheduler has no opinion and the game falls back to the
          first runnable thread *)
}

val round_robin : t
(** Fair: cycles through thread ids in increasing order — at step [s] it
    picks the [(s mod n)]-th smallest of the [n] runnable ids (runnable
    lists never repeat an id). *)

val random : seed:int -> t
(** Deterministic pseudo-random scheduler (splitmix-style hash of
    [seed, step]); fair with probability 1, and reproducible. *)

val of_trace : ?name:string -> Event.tid list -> t
(** Follow the given choice list; entries that are not currently runnable
    are skipped; after the trace is exhausted, behaves like
    {!round_robin}.  The internal cursor is stateful: use each scheduler
    value for exactly one run.  [name] defaults to ["trace"]. *)

val biased : favored:Event.tid -> ratio:int -> seed:int -> t
(** Picks [favored] [ratio] times more often than others when runnable —
    an adversarial scheduler used to hunt starvation. *)

val default_suite : seeds:int -> t list
(** Round-robin plus [seeds] random schedulers — the default scheduler
    suite of the checkers. *)

val splitmix : int -> int
(** The underlying avalanche hash (exposed for the verification harness's
    random choices). Result is non-negative. *)
