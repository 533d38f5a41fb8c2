(* The checker kernel (DESIGN.md S33): the budgeted scan every checker
   folds, the success-only memo, and the budget-polled edge loop. *)
open Util
module V = Ccal_verify
module Check = V.Check
module Budget = V.Budget

(* ---- scan ---- *)

(* A synthetic game of [x] moves: it asks the budget's stop closure
   before every move, as [Game.run] does, and costs its move count. *)
let game ~stop x =
  let rec go k =
    if k = 0 then Some x
    else match stop with Some f when f () -> None | _ -> go (k - 1)
  in
  go x

let costs = List.init 24 (fun i -> 1 + (i * 7 mod 5))

let scan_under ~jobs ~steps =
  let ctx =
    match steps with
    | None -> V.Ctx.make ~jobs ()
    | Some s -> V.Ctx.make ~jobs ~budget:(Budget.make ~steps:s ()) ()
  in
  let r =
    Check.scan ~ctx ~cost:Fun.id game costs ~init:[] (fun acc x -> x :: acc)
  in
  ( Budget.is_complete r,
    List.rev (Budget.value r),
    Budget.steps_used ctx.V.Ctx.token )

let test_scan_jobs_identical () =
  List.iter
    (fun steps ->
      let name =
        match steps with None -> "unlimited" | Some s -> Printf.sprintf "steps:%d" s
      in
      let complete, prefix, settled = scan_under ~jobs:1 ~steps in
      let total = List.fold_left ( + ) 0 prefix in
      check_bool (name ^ ": complete iff the whole corpus ran") complete
        (List.length prefix = List.length costs);
      check_bool (name ^ ": an unlimited scan completes") true (complete || steps <> None);
      check_bool (name ^ ": prefix of the corpus") true
        (prefix = List.filteri (fun i _ -> i < List.length prefix) costs);
      check_int (name ^ ": settled steps = prefix cost") total settled;
      List.iter
        (fun jobs ->
          let c, p, s = scan_under ~jobs ~steps in
          let at = Printf.sprintf "%s jobs=%d" name jobs in
          check_bool (at ^ ": same exhaustion") complete c;
          check_bool (at ^ ": same prefix") true (p = prefix);
          check_int (at ^ ": same settled steps") settled s)
        [ 2; 4 ])
    [ Some 0; Some 1; Some 5; Some 17; Some 40; Some 59; Some 61; Some 1000; None ]

let test_scan_cut_is_lowest () =
  List.iter
    (fun jobs ->
      let ctx = V.Ctx.make ~jobs () in
      let xs = List.init 64 Fun.id in
      match
        Check.scan ~ctx ~cost:(fun _ -> 0)
          ~cut:(fun x -> x = 17 || x = 40)
          (fun ~stop:_ x -> Some x)
          xs ~init:[]
          (fun acc x -> x :: acc)
      with
      | Budget.Complete rev ->
        check_bool
          (Printf.sprintf "jobs=%d: folds up to the first cut" jobs)
          true
          (List.rev rev = List.init 18 Fun.id)
      | Budget.Exhausted _ -> Alcotest.fail "unbudgeted scan exhausted")
    [ 1; 2; 4 ]

(* Unbudgeted contexts share no token state: cancelling one context's
   token stops that context only, and no scan writes the shared
   [Budget.no_token] of [Ctx.default]. *)
let test_cancel_reaches_one_context () =
  let scan ctx = Check.scan ~ctx ~cost:Fun.id game costs ~init:0 ( + ) in
  let cancelled = V.Ctx.make () in
  Budget.cancel cancelled.V.Ctx.token;
  check_bool "the cancelled context is exhausted" false
    (Budget.is_complete (scan cancelled));
  List.iter
    (fun jobs ->
      let at what = Printf.sprintf "jobs=%d: %s" jobs what in
      check_bool (at "Ctx.default scan complete") true
        (Budget.is_complete (scan (V.Ctx.with_jobs jobs V.Ctx.default)));
      check_bool (at "a second unbudgeted context complete") true
        (Budget.is_complete (scan (V.Ctx.make ~jobs ()))))
    [ 1; 2 ];
  check_int "Ctx.default's token is never settled" 0
    (Budget.steps_used V.Ctx.default.V.Ctx.token);
  check_bool "the shared token cannot be cancelled" true
    (match Budget.cancel Budget.no_token with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---- memo ---- *)

let int_kind : int V.Cache.kind = V.Cache.kind "check-kernel-test"

let with_cache f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-test-check-%d" (Unix.getpid ()))
  in
  let c = V.Cache.create ~dir () in
  ignore (V.Cache.clear c);
  Fun.protect
    ~finally:(fun () ->
      ignore (V.Cache.clear c);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f c)

let key =
  lazy
    Ccal_core.Fingerprint.(finish (string empty "check-kernel-test"))

let memo ?valid cache runs v =
  Check.memo cache int_kind ~key ?valid ~keep:Result.to_option
    ~hit:(fun n _ -> Ok n)
    (fun () ->
      incr runs;
      v)

let test_memo_key_lazy_without_cache () =
  let runs = ref 0 in
  let r =
    Check.memo None int_kind
      ~key:(lazy (Alcotest.fail "key forced without a cache"))
      ~keep:Result.to_option
      ~hit:(fun n _ -> Ok n)
      (fun () ->
        incr runs;
        Ok 3)
  in
  check_bool "ran live" true (r = Ok 3 && !runs = 1)

let test_memo_stores_successes_only () =
  with_cache (fun c ->
      let runs = ref 0 in
      check_bool "failure returned" true (memo (Some c) runs (Error "boom") = Error "boom");
      check_bool "failure re-runs" true (memo (Some c) runs (Error "boom") = Error "boom");
      check_int "both failures ran live" 2 !runs;
      check_int "no failure stored" 0 (V.Cache.session_stats c).stores;
      check_bool "success returned" true (memo (Some c) runs (Ok 5) = Ok 5);
      check_int "success stored" 1 (V.Cache.session_stats c).stores;
      check_bool "hit serves the stored value" true (memo (Some c) runs (Ok 6) = Ok 5);
      check_int "the hit did not run" 3 !runs)

let test_memo_invalid_entry_recomputed () =
  with_cache (fun c ->
      let runs = ref 0 in
      ignore (memo (Some c) runs (Ok 5));
      let r = memo ~valid:(fun n -> n <> 5) (Some c) runs (Ok 7) in
      check_bool "recomputed" true (r = Ok 7 && !runs = 2);
      check_int "bad entry invalidated" 1 (V.Cache.session_stats c).invalidations;
      check_bool "recomputed entry stored" true (memo (Some c) runs (Ok 9) = Ok 7))

(* A real checker through the kernel: an exhausted crash edge stores no
   verdict (only the unbudgeted walk that derived its suite). *)
let test_memo_exhausted_run_not_stored () =
  with_cache (fun c ->
      let ctx = V.Ctx.make ~cache:c ~budget:(Budget.make ~steps:30 ()) () in
      (match V.Crash.check_edge_ctx ~ctx (Ccal_disk.Wal.crash_edge ()) with
      | Budget.Exhausted _ -> ()
      | Budget.Complete _ -> Alcotest.fail "expected exhaustion");
      check_bool "no crash verdict stored" false
        (Array.exists
           (String.starts_with ~prefix:"crash-")
           (Sys.readdir (V.Cache.dir c))))

(* ---- edges ---- *)

let run_edges ?(ctx = V.Ctx.default) ran verdicts =
  Check.edges ~ctx ~name:fst
    (fun (name, v) ->
      ran := name :: !ran;
      v)
    verdicts

let test_edges_frontier () =
  let ran = ref [] in
  (match run_edges ran [ "a", Some (Ok 1); "b", None; "c", Some (Ok 3) ] with
  | Budget.Exhausted { partial = Ok (done_, frontier); _ } ->
    check_bool "completed edges only" true (done_ = [ 1 ]);
    check_bool "frontier named" true (frontier = Some "b")
  | _ -> Alcotest.fail "expected exhaustion at b");
  check_bool "nothing after the frontier ran" true (!ran = [ "b"; "a" ])

let test_edges_poll_and_failure () =
  let ran = ref [] in
  let ctx = V.Ctx.make ~budget:(Budget.make ~ms:1e9 ()) () in
  Budget.cancel ctx.V.Ctx.token;
  (match run_edges ~ctx ran [ "a", Some (Ok 1) ] with
  | Budget.Exhausted { partial = Ok ([], Some "a"); _ } -> ()
  | _ -> Alcotest.fail "expected exhaustion before a");
  check_bool "polled before the first edge" true (!ran = []);
  (match run_edges ran [ "a", Some (Ok 1); "b", Some (Error "bad"); "c", Some (Ok 3) ] with
  | Budget.Complete (Error "bad") -> ()
  | _ -> Alcotest.fail "expected the failure of b");
  match run_edges ran [ "a", Some (Ok 1); "b", Some (Ok 2) ] with
  | Budget.Complete (Ok ([ 1; 2 ], None)) -> ()
  | _ -> Alcotest.fail "expected every edge"

let suite =
  [
    tc "scan: prefix, settled steps and exhaustion agree on jobs {1,2,4}"
      test_scan_jobs_identical;
    tc "scan: the fold ends at the lowest-indexed cut" test_scan_cut_is_lowest;
    tc "scan: cancelling one context's token leaves Ctx.default complete"
      test_cancel_reaches_one_context;
    tc "memo: without a cache the key is never forced"
      test_memo_key_lazy_without_cache;
    tc "memo: failures are never stored" test_memo_stores_successes_only;
    tc "memo: an entry failing its check is invalidated and recomputed"
      test_memo_invalid_entry_recomputed;
    tc "memo: an exhausted run is never stored" test_memo_exhausted_run_not_stored;
    tc "edges: the partial holds completed edges, the frontier is named"
      test_edges_frontier;
    tc "edges: polled between edges; the first failure ends the loop"
      test_edges_poll_and_failure;
  ]
