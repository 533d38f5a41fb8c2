open Ccal_core
module Engine = Strategy.Engine

let exhaustive_prefixes ~tids ~depth =
  let rec traces d =
    if d <= 0 then [ [] ]
    else
      let shorter = traces (d - 1) in
      List.concat_map (fun t -> List.map (fun tr -> t :: tr) shorter) tids
  in
  traces depth

let exhaustive_scheds ~tids ~depth =
  List.map (Dpor.sched_of_prefix ~tag:"exh") (exhaustive_prefixes ~tids ~depth)

let random_scheds ~count = List.init count (fun k -> Sched.random ~seed:(k + 1))

let full_suite ~tids ?(depth = 4) ?(random = 16) () =
  (Sched.round_robin :: exhaustive_scheds ~tids ~depth) @ random_scheds ~count:random

(* The one engine dispatch (DESIGN.md S31).  Only the [dpor] walk is
   cached: it goes through [Dpor.prefixes_ctx], the single reader and
   writer of the suite cache.  The exhaustive suite is never cached (an
   entry would be as large as the work) and the random suite is not
   prefix-shaped. *)
let scheds_of_strategy_ctx ~ctx ?private_fuel layer threads =
  let engine = Engine.checked ctx.Ctx.strategy in
  match engine.Engine.algo with
  | Engine.Dpor ->
    List.map
      (Dpor.sched_of_prefix ~tag:"dpor")
      (Dpor.prefixes_ctx ~ctx ?private_fuel ~independence:Dpor.Exact ~engine
         ~depth:engine.Engine.depth layer threads)
  | Engine.Exhaustive ->
    (* Pseudo-threads (TSO flushers, the crash thread) are schedulable
       too, so the exhaustive prefix alphabet must include their tids. *)
    let effective =
      threads @ Game.pseudo_threads ~memory:ctx.Ctx.memory layer threads
    in
    exhaustive_scheds ~tids:(List.map fst effective) ~depth:engine.Engine.depth
  | Engine.Random -> random_scheds ~count:engine.Engine.depth

let runall_kind : Game.outcome list Cache.kind = Cache.kind "runall"

(* Cache key of a [run_all] call: the complete game identity — layer,
   linked client programs, scheduler suite (by name), fuel.  [jobs] is
   deliberately absent: outcomes are bit-identical across jobs counts. *)
let runall_key ?max_steps ~memory layer threads scheds =
  let st = Fingerprint.string Fingerprint.empty "runall" in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st = Fingerprint.threads st threads in
  let st = Fingerprint.scheds st scheds in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st max_steps)

let run_all_ctx ~ctx ?max_steps layer threads scheds =
  Ctx.arm ctx @@ fun () ->
  Check.memo ctx.Ctx.cache runall_kind
    ~key:(lazy (runall_key ?max_steps ~memory:ctx.Ctx.memory layer threads scheds))
    (* Only fully clean, fully explored corpora are stored: any
       non-[All_done] status is a (potential) failure and must always
       reproduce live, and an exhausted prefix is not the corpus. *)
    ~keep:(function
      | Budget.Complete outcomes
        when List.for_all (fun o -> o.Game.status = Game.All_done) outcomes ->
        Some outcomes
      | Budget.Complete _ | Budget.Exhausted _ -> None)
    ~hit:(fun outcomes _ -> Budget.Complete outcomes)
  @@ fun () ->
  Budget.map List.rev
    (Probe.span "explore.run_all" (fun () ->
         Check.scan ~ctx
           ~cost:(fun o -> o.Game.steps)
           (fun ~stop sched ->
             Check.game
               (Game.config ?max_steps ?stop ~memory:ctx.Ctx.memory layer
                  threads sched))
           scheds ~init:[]
           (fun acc o -> o :: acc)))

let all_logs outcomes = List.map (fun o -> o.Game.log) outcomes

let count_distinct_logs outcomes = List.length (Log.dedup (all_logs outcomes))
