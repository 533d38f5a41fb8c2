open Ccal_core

type report = {
  runs : int;
  distinct_logs : int;
  events : int;
}

(* Parallel counterpart of {!Refinement.check}: the lowest-indexed
   failing schedule is reported, so the result is identical for every
   jobs count.  The budget is charged the underlay event count of each
   schedule (a deterministic proxy for its work). *)
let refine_live ~ctx ?max_steps ?expect_all_done ~underlay ~impl ~overlay
    ~rel ~client ~tids ~scheds () =
  let finish (n, logs, translated) =
    {
      Refinement.scheds_checked = n;
      logs = List.rev logs;
      translated = List.rev translated;
    }
  in
  Budget.map
    (Result.map finish)
    (Check.scan ~ctx
       ~cost:(function
         | Ok (l, _) -> Log.length l
         | Error (f : Refinement.failure) -> Log.length f.Refinement.under_log)
       ~cut:Result.is_error
       (fun ~stop sched ->
         match
           Refinement.check_sched_stop ?max_steps ?expect_all_done ?stop
             ~memory:ctx.Ctx.memory ~underlay ~impl ~overlay ~rel ~client ~tids
             sched
         with
         | `Checked r -> Some r
         | `Interrupted -> None)
       scheds ~init:(Ok (0, [], []))
       (fun acc r ->
         Result.bind acc (fun (n, logs, translated) ->
             Result.map (fun (l, lt) -> (n + 1, l :: logs, lt :: translated)) r)))

(* Cache key of a refinement scan: both machine interfaces, the
   implementation bodies, the relation (by name), the client workload on
   the focused threads, the suite identity, and the fuel/strictness
   knobs.  [jobs] is absent by design. *)
let refine_key ?max_steps ?expect_all_done ~memory ~underlay ~impl ~overlay
    ~rel ~client ~tids ~scheds () =
  let st = Fingerprint.string Fingerprint.empty "refine" in
  let st = Fingerprint.layer st underlay in
  let st = Fingerprint.layer st overlay in
  let st = Fingerprint.memory st memory in
  let st = Fingerprint.modul st impl in
  let st = Fingerprint.string st rel.Sim_rel.name in
  let st =
    Fingerprint.list
      (fun st i -> Fingerprint.prog (Fingerprint.int st i) (client i))
      st tids
  in
  let st = Fingerprint.scheds st scheds in
  let st = Fingerprint.option Fingerprint.int st max_steps in
  Fingerprint.finish (Fingerprint.option Fingerprint.bool st expect_all_done)

(* The stored verdict: the successful report plus the hash of its logs,
   re-checked on load so a bit-rotted entry invalidates instead of
   deserializing into a wrong-but-plausible report. *)
type stored_report = { report : Refinement.report; log_hash : Fingerprint.t }

let refine_kind : stored_report Cache.kind = Cache.kind "refine"

let report_hash (r : Refinement.report) =
  let st = Fingerprint.int Fingerprint.empty r.Refinement.scheds_checked in
  let st = Fingerprint.list Fingerprint.log st r.Refinement.logs in
  Fingerprint.finish (Fingerprint.list Fingerprint.log st r.Refinement.translated)

let refine_ctx ~ctx ?max_steps ?expect_all_done ~underlay ~impl ~overlay
    ~rel ~client ~tids ~scheds () =
  Ctx.arm ctx @@ fun () ->
  Check.memo ctx.Ctx.cache refine_kind
    ~key:
      (lazy
        (refine_key ?max_steps ?expect_all_done ~memory:ctx.Ctx.memory
           ~underlay ~impl ~overlay ~rel ~client ~tids ~scheds ()))
    ~valid:(fun { report; log_hash } ->
      Fingerprint.equal (report_hash report) log_hash)
    ~keep:(function
      | Budget.Complete (Ok report) ->
        Some { report; log_hash = report_hash report }
      | Budget.Complete (Error _) | Budget.Exhausted _ -> None)
    ~hit:(fun { report; _ } _ -> Budget.Complete (Ok report))
  @@ fun () ->
  refine_live ~ctx ?max_steps ?expect_all_done ~underlay ~impl ~overlay ~rel
    ~client ~tids ~scheds ()

let refine_cert_ctx ~ctx ?max_steps ?expect_all_done (cert : Calculus.cert)
    ~client ~scheds =
  refine_ctx ~ctx ?max_steps ?expect_all_done
    ~underlay:cert.Calculus.judgment.Calculus.underlay
    ~impl:cert.Calculus.judgment.Calculus.impl
    ~overlay:cert.Calculus.judgment.Calculus.overlay
    ~rel:cert.Calculus.judgment.Calculus.rel ~client
    ~tids:cert.Calculus.judgment.Calculus.focus ~scheds ()

let summarize (r : Refinement.report) =
  let logs = r.Refinement.logs in
  let distinct_logs = List.length (Log.dedup logs) in
  Probe.add Probe.logs_distinct distinct_logs;
  {
    runs = r.Refinement.scheds_checked;
    distinct_logs;
    events = List.fold_left (fun n l -> n + Log.length l) 0 logs;
  }

let check_ctx ~ctx ?max_steps ?scheds ~underlay ~impl ~overlay ~rel ~client
    ~tids () =
  Ctx.arm ctx @@ fun () ->
  let scheds =
    match scheds with
    | Some s -> s
    | None ->
      (* The schedulers drive the underlay game, so derive the suite from
         the same linked threads [Refinement.check] will run. *)
      let threads_under =
        List.map (fun i -> i, Prog.Module.link impl (client i)) tids
      in
      Explore.scheds_of_strategy_ctx ~ctx underlay threads_under
  in
  Budget.map
    (Result.map summarize)
    (refine_ctx ~ctx ?max_steps ~underlay ~impl ~overlay ~rel ~client ~tids
       ~scheds ())

let check_cert_ctx ~ctx ?max_steps ?scheds (cert : Calculus.cert) ~client =
  check_ctx ~ctx ?max_steps ?scheds
    ~underlay:cert.Calculus.judgment.Calculus.underlay
    ~impl:cert.Calculus.judgment.Calculus.impl
    ~overlay:cert.Calculus.judgment.Calculus.overlay
    ~rel:cert.Calculus.judgment.Calculus.rel ~client
    ~tids:cert.Calculus.judgment.Calculus.focus ()
