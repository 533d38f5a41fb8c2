(* Tests for the multicore checking subsystem (S24): the domain-pool
   executor itself, and — the property the whole design hangs on — that
   every checker verdict is structurally identical for every jobs count,
   including failing verdicts on seeded buggy layers.  The jobs grid
   {1, 2, 4, 7} deliberately oversubscribes small hosts: determinism must
   not depend on the core count. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util
module C = Ccal_clight.Csyntax

let jobs_grid = [ 1; 2; 4; 7 ]

(* Structural equality across the grid: [run jobs] must return the same
   value for every entry as for the sequential oracle [run 1]. *)
let check_jobs_invariant name run =
  let oracle = run 1 in
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "%s: jobs=%d = sequential" name jobs) true
        (run jobs = oracle))
    jobs_grid

(* ---- the executor ---- *)

let prop_map_is_list_map =
  qtc "Parallel.map = List.map (any jobs)"
    QCheck.(pair (oneofl [ 1; 2; 4; 7 ]) (small_list small_int))
    (fun (jobs, xs) ->
      Parallel.map ~jobs (fun x -> (x * 2) + 1) xs
      = List.map (fun x -> (x * 2) + 1) xs)

let seq_scan ~cut f xs =
  let rec go = function
    | [] -> []
    | x :: r ->
      let y = f x in
      if cut y then [ y ] else y :: go r
  in
  go xs

let prop_scan_is_sequential_scan =
  qtc "Parallel.scan = sequential early-exit scan"
    QCheck.(pair (oneofl [ 1; 2; 4; 7 ]) (small_list small_int))
    (fun (jobs, xs) ->
      let cut y = y mod 5 = 0 in
      let f x = x * 3 in
      Parallel.scan ~jobs ~cut f xs = seq_scan ~cut f xs)

exception Boom of int

let test_exception_lowest_index () =
  (* several jobs raise; whatever domain finishes first, the exception
     surfaced must be the lowest-indexed one, as List.map's would be *)
  let xs = List.init 40 Fun.id in
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f xs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check_int (Printf.sprintf "jobs=%d raises at 3" jobs) 3 i)
    jobs_grid

let test_oversubscribed_pool () =
  (* more domains than jobs, and more jobs than domains, both fine *)
  check_bool "jobs > length" true
    (Parallel.map ~jobs:16 succ [ 1; 2; 3 ] = [ 2; 3; 4 ]);
  let xs = List.init 500 Fun.id in
  check_bool "length >> jobs" true (Parallel.map ~jobs:2 succ xs = List.map succ xs)

let test_stats_monotone () =
  let before = (Parallel.stats ()).Parallel.jobs_run in
  ignore (Parallel.map ~jobs:2 succ (List.init 64 Fun.id));
  let after = (Parallel.stats ()).Parallel.jobs_run in
  check_bool "jobs_run grew" true (after >= before + 64)

(* ---- races: collection semantics and cross-jobs determinism ---- *)

(* A layer where thread 1 fails for an ordinary (non-race) reason and
   threads 2/3 race through push/pull: the checker must keep scanning past
   the non-race failure and report the race. *)
let mixed_layer () =
  Layer.make "Lmixed"
    (Ccal_machine.Pushpull.prims
    @ [
        Layer.shared_prim "trap" (fun _ _ _ ->
            Layer.Stuck "ordinary failure, not a race");
      ])

let mixed_threads () =
  let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
  [ 1, Prog.call "trap" []; 2, grab 2; 3, grab 3 ]

let mixed_scheds () =
  [ Sched.of_trace ~name:"other-first" [ 1 ]; Sched.of_trace ~name:"racy" [ 2; 3 ] ]

let test_race_found_after_other_failure () =
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds:(mixed_scheds ()) (mixed_layer ())
      (mixed_threads ())
  with
  | Races.Race { sched_name; _ } -> check_string "the later schedule" "racy" sched_name
  | Races.Other_failure msg ->
    Alcotest.failf "non-race failure aborted the scan: %s" msg
  | Races.Race_free _ -> Alcotest.fail "race missed"
  | Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_other_failures_collected () =
  (* no race anywhere: the first failure is reported, annotated with the
     rest of the evidence *)
  let scheds =
    [ Sched.of_trace ~name:"trap-a" [ 1 ]; Sched.of_trace ~name:"trap-b" [ 1 ] ]
  in
  let layer = mixed_layer () in
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds layer [ 1, Prog.call "trap" [] ]
  with
  | Races.Other_failure msg ->
    check_bool "mentions the further failure" true
      (String.length msg > 0
      && String.length msg > String.length "ordinary failure")
  | Races.Race _ -> Alcotest.fail "misclassified as race"
  | Races.Race_free _ -> Alcotest.fail "failures dropped"
  | Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_races_verdict_jobs_invariant () =
  check_jobs_invariant "races mixed" (fun jobs ->
      Races.check_ctx ~ctx:(Ctx.make ~jobs ()) ~scheds:(mixed_scheds ())
        (mixed_layer ()) (mixed_threads ()))

let test_races_clean_jobs_invariant () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  let threads = List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2 ] in
  check_jobs_invariant "races clean ticket" (fun jobs ->
      (* trace/random schedulers are single-use: regenerate per run *)
      Races.check_ctx ~ctx:(Ctx.make ~jobs ())
        ~scheds:(Sched.default_suite ~seeds:6) layer threads)

(* ---- progress ---- *)

let test_progress_jobs_invariant_ok () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  let threads = List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2; 3 ] in
  check_jobs_invariant "progress ok" (fun jobs ->
      Budget.value
        (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs ())
           ~scheds:(Sched.default_suite ~seeds:8) ~bound:2_000 layer threads))

let test_progress_jobs_invariant_failing () =
  (* every schedule starves the spinner; the reported failure must name
     the lowest-indexed schedule for every jobs count *)
  let layer = Ccal_machine.Mx86.layer () in
  let rec spin () =
    Prog.bind (Prog.call "aload" [ vi 0 ]) (fun v ->
        if Value.to_int v = 1 then Prog.ret_unit else spin ())
  in
  let result =
    check_jobs_invariant "progress starvation" (fun jobs ->
        Budget.value
          (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs ())
             ~scheds:(Sched.default_suite ~seeds:5) ~bound:200 layer
             [ 1, spin () ]))
  in
  (match
     Budget.value
       (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs:4 ())
          ~scheds:(Sched.default_suite ~seeds:5) ~bound:200 layer
          [ 1, spin () ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "starvation not detected");
  result

(* ---- linearizability / refinement ---- *)

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let test_linearizability_jobs_invariant_ok () =
  match Ticket_lock.certify ~focus:[ 1; 2 ] () with
  | Error e -> Alcotest.failf "%a" Calculus.pp_error e
  | Ok cert ->
    check_jobs_invariant "linearizability ok" (fun jobs ->
        Budget.value
          (Linearizability.check_cert_ctx ~ctx:(Ctx.make ~jobs ())
             ~scheds:(Explore.full_suite ~tids:[ 1; 2 ] ~depth:3 ~random:4 ())
             cert ~client:lock_client))

(* The seeded bug of test_verify_injection: rel forgets inc_n, so a second
   acquire starves.  The refinement failure must be identical (same
   schedule, same reason, same logs) for every jobs count. *)
let broken_rel_no_inc =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body = C.seq [ C.call_ "push" [ C.v "b"; C.v "v" ]; C.return_unit ];
  }

let test_refinement_failure_jobs_invariant () =
  let impl =
    Ccal_clight.Csem.module_of_fns [ Ticket_lock.acq_fn; broken_rel_no_inc ]
  in
  let r =
    Calculus.fun_rule ~underlay:(Ticket_lock.l0 ())
      ~overlay:(Ticket_lock.overlay ()) ~impl ~rel:Ticket_lock.r_ticket
      ~focus:[ 1 ] ~prim_tests:(Ticket_lock.prim_tests ())
      ~envs:(Ticket_lock.env_suite ()) ()
  in
  match r with
  | Error _ -> () (* caught even earlier; nothing to parallelise *)
  | Ok cert ->
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.call "acq" [ vi 0 ]))
    in
    let run jobs =
      Budget.value
        (Linearizability.refine_cert_ctx ~ctx:(Ctx.make ~jobs ())
           ~max_steps:5_000 cert ~client
           ~scheds:(Sched.default_suite ~seeds:3))
    in
    check_jobs_invariant "broken-lock refinement failure" run;
    (match run 4 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "missing inc_n not caught in parallel")

(* ---- dpor / explore ---- *)

let ticket_game () =
  let m = Ticket_lock.c_module () in
  Ticket_lock.l0 (),
  List.map (fun i -> i, Prog.Module.link m (lock_client i)) [ 1; 2 ]

let test_dpor_prefixes_jobs_invariant () =
  let layer, threads = ticket_game () in
  check_jobs_invariant "dpor prefixes" (fun jobs ->
      Dpor.prefixes_ctx ~ctx:(Ctx.make ~jobs ()) ~depth:4 layer threads)

let test_dpor_explore_jobs_invariant () =
  let layer, threads = ticket_game () in
  check_jobs_invariant "dpor explore (outcomes and stats)" (fun jobs ->
      let r =
        Budget.value
          (Dpor.explore_ctx ~ctx:(Ctx.make ~jobs ()) ~depth:4 layer threads)
      in
      r.Dpor.prefixes, List.map (fun o -> o.Game.log) r.Dpor.outcomes, r.Dpor.stats)

let test_explore_run_all_jobs_invariant () =
  let layer, threads = ticket_game () in
  check_jobs_invariant "run_all logs" (fun jobs ->
      List.map
        (fun o -> o.Game.status, o.Game.log, o.Game.results)
        (Budget.value
           (Explore.run_all_ctx ~ctx:(Ctx.make ~jobs ()) layer threads
              (Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:4))))

(* ---- the whole stack ---- *)

let test_stack_report_jobs_invariant () =
  (* timing fields differ by construction; everything else must not *)
  let strip (r : Stack.report) =
    List.map (fun (e : Stack.edge) -> e.Stack.edge_name, e.Stack.kind, e.Stack.checks)
      r.Stack.edges,
    r.Stack.total_checks
  in
  check_jobs_invariant "stack verify_all" (fun jobs ->
      match
        Result.map
          (fun (p : Stack.progress) -> p.Stack.completed)
          (Budget.value
             (Stack.verify_all_ctx ~ctx:(Ctx.make ~jobs ()) ~seeds:2 ()))
      with
      | Ok r -> Ok (strip r)
      | Error _ as e -> e)

(* ---- Game.replay_into: the replay hot path (S24) ----

   The scratch-reusing, memoizing replay is the engine under every
   parallel checker; these properties pin it bit-identical to the
   reference game — a fresh scratch, every replay refolding the whole log
   ({!Replay.from_scratch}) — over random games, schedules, fuel bounds
   and stop-closure truncation points.  One scratch is shared across every
   property iteration on purpose: staleness from a previous game
   (different thread count included — the resize path) must never leak
   into the next outcome. *)

let shared_scratch = Game.make_scratch ()

let reference cfg =
  Replay.from_scratch (fun () -> Game.replay_into (Game.make_scratch ()) cfg)

let replay_game kind n =
  match kind with
  | 0 ->
    (* event-emitting counters: every move appends to the log *)
    let tick i =
      Prog.seq
        (Prog.call "tick" [ vi 1 ])
        (Prog.bind (Prog.call "read" [ vi 1 ]) (fun _ -> Prog.ret (vi i)))
    in
    counter_layer (), List.init n (fun k -> k + 1, tick (k + 1))
  | 1 ->
    (* blocking: contending threads hit [Layer.Block], deadlock possible *)
    Lock_intf.layer "Llock", List.init n (fun k -> k + 1, lock_client (k + 1))
  | _ ->
    (* racing: concurrent pulls of one location get structurally stuck *)
    let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
    ( Layer.make "Lpp" Ccal_machine.Pushpull.prims,
      List.init n (fun k -> k + 1, grab (k + 1)) )

(* Build a fresh config per run: trace schedulers and stop closures are
   single-use state. *)
let replay_config ?stop_after ~max_steps ~check_guar kind n trace =
  let layer, threads = replay_game kind n in
  let stop =
    Option.map
      (fun k ->
        let polls = ref 0 in
        fun () ->
          incr polls;
          !polls > k)
      stop_after
  in
  Game.config ~max_steps ~check_guar ?stop layer threads (Sched.of_trace trace)

let gen_replay_case =
  QCheck.(
    quad (int_range 0 2) (int_range 1 4)
      (list_of_size Gen.(0 -- 12) (int_range 0 5))
      (int_range 1 40))

let prop_replay_into_equals_reference =
  qtc "Game.replay_into (reused scratch) = from-scratch replay" gen_replay_case
    (fun (kind, n, trace, max_steps) ->
      let mk () = replay_config ~max_steps ~check_guar:true kind n trace in
      reference (mk ()) = Game.replay_into shared_scratch (mk ()))

let prop_replay_into_truncation_equals_reference =
  (* the stop closure trips after a random number of polls: Cancelled
     prefixes — the budgeted scan's per-schedule truncation — must be
     identical too, at every truncation point *)
  qtc "Game.replay_into = from-scratch replay at every stop-closure truncation"
    QCheck.(pair gen_replay_case (int_range 0 20))
    (fun ((kind, n, trace, max_steps), stop_after) ->
      let mk () =
        replay_config ~stop_after ~max_steps ~check_guar:false kind n trace
      in
      reference (mk ()) = Game.replay_into shared_scratch (mk ()))

let prop_replay_freelist_equals_reference =
  (* the checkers' entry point: a scratch borrowed from the freelist *)
  qtc "Game.replay (freelist) = from-scratch replay" gen_replay_case
    (fun (kind, n, trace, max_steps) ->
      let mk () = replay_config ~max_steps ~check_guar:true kind n trace in
      reference (mk ()) = Game.replay (mk ()))

let test_replay_into_scratch_resize () =
  (* deterministic staleness probe: grow, shrink, regrow the thread table
     through one scratch, interleaving game families *)
  List.iter
    (fun (kind, n) ->
      let trace = List.init 10 (fun s -> (s mod n) + 1) in
      let mk () = replay_config ~max_steps:60 ~check_guar:true kind n trace in
      check_bool
        (Printf.sprintf "kind=%d n=%d after resize" kind n)
        true
        (reference (mk ()) = Game.replay_into shared_scratch (mk ())))
    [ 1, 4; 0, 1; 2, 3; 1, 1; 0, 4; 2, 1; 1, 3 ]

let test_budgeted_races_exhausted_jobs_invariant () =
  (* a step budget that trips mid-scan: the Exhausted partial (resume
     point, clean count, failure list) and the deterministic spent fields
     must be identical for every jobs count; elapsed_ms is wall-clock and
     excluded by construction *)
  let layer = Lock_intf.layer "Llock" in
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  check_jobs_invariant "races Exhausted partial" (fun jobs ->
      let ctx = Ctx.make ~jobs ~budget:(Budget.make ~steps:400 ()) () in
      match
        Races.check_ctx ~ctx
          ~scheds:(Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:4)
          layer threads
      with
      | Races.Exhausted { spent; partial } ->
        `Exhausted (spent.Budget.reason, spent.Budget.steps_used, partial)
      | v -> `Verdict v)

let suite =
  [
    prop_map_is_list_map;
    prop_scan_is_sequential_scan;
    tc "exceptions surface at the lowest index" test_exception_lowest_index;
    tc "oversubscribed pools" test_oversubscribed_pool;
    tc "stats are monotone" test_stats_monotone;
    tc "races: race found past a non-race failure" test_race_found_after_other_failure;
    tc "races: non-race failures collected" test_other_failures_collected;
    tc "races: mixed verdict jobs-invariant" test_races_verdict_jobs_invariant;
    tc "races: clean verdict jobs-invariant" test_races_clean_jobs_invariant;
    tc "progress: report jobs-invariant" test_progress_jobs_invariant_ok;
    tc "progress: starvation jobs-invariant" test_progress_jobs_invariant_failing;
    tc "linearizability: report jobs-invariant" test_linearizability_jobs_invariant_ok;
    tc "refinement: failure jobs-invariant" test_refinement_failure_jobs_invariant;
    tc "dpor: prefixes jobs-invariant" test_dpor_prefixes_jobs_invariant;
    tc "dpor: explore jobs-invariant" test_dpor_explore_jobs_invariant;
    tc "explore: run_all jobs-invariant" test_explore_run_all_jobs_invariant;
    tc "stack: report jobs-invariant" test_stack_report_jobs_invariant;
    prop_replay_into_equals_reference;
    prop_replay_into_truncation_equals_reference;
    prop_replay_freelist_equals_reference;
    tc "replay_into: scratch resize never leaks state"
      test_replay_into_scratch_resize;
    tc "races: Exhausted partial jobs-invariant"
      test_budgeted_races_exhausted_jobs_invariant;
  ]
