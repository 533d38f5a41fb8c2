open Ccal_core

(* What a budget-exhausted scan has established so far — enough to
   resume without redoing work and to reproduce the eventual verdict
   bit-identically: the count of schedules fully evaluated (the resume
   point), the clean-run count, and the non-race failure messages in
   schedule order.  Racy outcomes never appear here: a race cuts the
   scan and wins immediately. *)
type partial = { scanned : int; clean : int; others : string list }

(* A race-free verdict stores its run count; an exhausted scan stores
   its partial, the implicit resume point of the next run. *)
let verdict_kind : int Cache.kind = Cache.kind "races"
let partial_kind : partial Cache.kind = Cache.kind "races.partial"

type verdict =
  | Race_free of { runs : int }
  | Race of { sched_name : string; detail : string; log : Log.t }
  | Other_failure of string
  | Exhausted of { spent : Budget.spent; partial : partial }

type sched_outcome =
  | Clean
  | Racy of { sched_name : string; detail : string; log : Log.t }
  | Other of string

(* [None] when the budget's stop closure cancelled the game. *)
let classify sched outcome =
  let racy detail =
    Some (Racy { sched_name = sched.Sched.name; detail; log = outcome.Game.log })
  in
  match outcome.Game.status with
  | Game.Cancelled -> None
  | Game.Stuck (_, Layer.Data_race, msg) -> racy msg
  | Game.Stuck (i, Layer.Invalid_transition, msg) ->
    Some (Other (Printf.sprintf "thread %d stuck (not a race): %s" i msg))
  | Game.Deadlock ids ->
    Some
      (Other
         (Printf.sprintf "deadlock among threads %s"
            (String.concat "," (List.map string_of_int ids))))
  | Game.Out_of_fuel -> Some (Other "out of fuel")
  | Game.All_done ->
    if Ccal_machine.Pushpull.race_free outcome.Game.log then Some Clean
    else racy "completed log fails push/pull replay"

(* The per-schedule body: pure in the sense that it touches only its own
   game state, so the pool can evaluate schedules on any domain. *)
let eval ?max_steps ?memory layer threads ~stop sched =
  Probe.incr Probe.race_checks;
  let outcome =
    Game.replay (Game.config ?max_steps ?stop ?memory layer threads sched)
  in
  Option.map (fun o -> (outcome.Game.steps, o)) (classify sched outcome)

(* The scan's fold.  A race anywhere wins (the lowest-indexed one: it
   cuts the scan); non-race failures such as one adversarial schedule
   running out of fuel do not abort the scan, they are collected
   (newest first) and reported only when no schedule exposes a race. *)
let step acc (_, o) =
  match acc, o with
  | Error _, _ -> acc
  | Ok p, Clean -> Ok { p with scanned = p.scanned + 1; clean = p.clean + 1 }
  | Ok p, Other m -> Ok { p with scanned = p.scanned + 1; others = m :: p.others }
  | Ok _, Racy { sched_name; detail; log } -> Error (Race { sched_name; detail; log })

let verdict_of p =
  match p.others with
  | [] -> Race_free { runs = p.clean }
  | first :: more ->
    Other_failure
      (if more = [] then first
       else
         Printf.sprintf "%s (+%d further non-race failures, %d clean runs)"
           first (List.length more) p.clean)

(* Cache key: game identity plus the suite identity.  When the suite is
   implicit the key uses the strategy descriptor — deliberately, so a
   warm hit skips even the DPOR walk that would materialize it. *)
let check_key ?max_steps ~suite ~memory layer threads =
  let st = Fingerprint.string Fingerprint.empty "races" in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st = Fingerprint.threads st threads in
  let st =
    match suite with
    | `Scheds ss -> Fingerprint.scheds (Fingerprint.int st 1) ss
    | `Strategy s ->
      Fingerprint.string (Fingerprint.int st 2) (Ctx.Engine.to_string s)
  in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st max_steps)

let check_ctx ~ctx ?max_steps ?scheds ?resume layer threads =
  Ctx.arm ctx @@ fun () ->
  let key =
    lazy
      (let suite =
         match scheds with
         | Some ss -> `Scheds ss
         | None -> `Strategy ctx.Ctx.strategy
       in
       check_key ?max_steps ~suite ~memory:ctx.Ctx.memory layer threads)
  in
  (* A resumed scan starts its fold from what the partial already knows;
     the fold only counts cleans and collects others in order, so the
     final verdict — message included — is byte-identical to a
     from-scratch run. *)
  let run (start : partial) =
    let all_scheds =
      match scheds with
      | Some s -> s
      | None -> Explore.scheds_of_strategy_ctx ~ctx layer threads
    in
    let in_order p = { p with others = List.rev p.others } in
    match
      Check.scan ~ctx ~cost:fst
        ~cut:(fun (_, o) -> match o with Racy _ -> true | Clean | Other _ -> false)
        (eval ?max_steps ~memory:ctx.Ctx.memory layer threads)
        (List.filteri (fun i _ -> i >= start.scanned) all_scheds)
        ~init:(Ok (in_order start)) step
    with
    | Budget.Complete (Ok p) -> verdict_of (in_order p)
    | Budget.Exhausted { spent; partial = Ok p } ->
      Exhausted { spent; partial = in_order p }
    | Budget.Complete (Error v) | Budget.Exhausted { partial = Error v; _ } -> v
  in
  let fresh = { scanned = 0; clean = 0; others = [] } in
  Check.memo ctx.Ctx.cache verdict_kind ~key
    ~keep:(function Race_free { runs } -> Some runs | _ -> None)
    ~hit:(fun runs _ -> Race_free { runs })
  @@ fun () ->
  match ctx.Ctx.cache with
  | None -> run (Option.value resume ~default:fresh)
  | Some c ->
    let key = Lazy.force key in
    (* No full verdict cached: a stashed partial from an earlier
       exhausted run is the implicit resume point. *)
    let resume =
      match resume with Some _ -> resume | None -> Cache.find c partial_kind key
    in
    let v = run (Option.value resume ~default:fresh) in
    (match v with
    | Exhausted { partial; _ } -> Cache.store c partial_kind key partial
    (* Races and other failures are never stored (they must always
       reproduce live, counterexample log and all), and a finished scan
       makes the partial stale. *)
    | Race_free _ | Race _ | Other_failure _ -> Cache.invalidate c partial_kind key);
    v
