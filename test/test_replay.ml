(* Incremental replay: inside a game, a replay function folds only the
   events appended since its previous call.  Every property here pins the
   memoized replay to the from-scratch one — random logs, stuck logs and
   their error strings, logs that branch off the memoized one (the miss
   path), and every object fold hoisted into one keyed fold per module. *)
open Ccal_core
open Ccal_objects
open Util
module Mach = Ccal_machine
module Kv = Ccal_kv

(* ---- random log sequences ---- *)

(* The union of the hoisted folds' tags, plus a stray one; arguments of
   every arity over three objects, so logs hit both the well-formed and
   the stuck paths of each fold. *)
let tags =
  [
    "acq"; "rel"; "FAI_t"; "get_n"; "inc_n"; "send"; "recv"; "acq_q";
    "rel_q"; "enQ_s"; "deQ_s"; "acq_r"; "rel_r"; "acq_w"; "rel_w";
    "buf_store"; "commit"; "faa"; "xchg"; "cas"; "astore"; "c_open";
    "c_fill"; "c_end_read"; "c_exc"; "c_update"; "c_wb_done"; "put"; "del";
    "pull"; "push"; "d_write"; "d_sync"; "yield"; "sleep"; "wakeup"; "texit";
    "other";
  ]

let gen_event =
  QCheck.Gen.(
    map3
      (fun src tag args -> ev ~args:(List.map vi args) src tag)
      (int_range 1 3) (oneofl tags)
      (list_size (int_range 0 3) (int_range 0 2)))

(* How the next log derives from the ones before: extend the newest,
   branch off an older one (a miss), replay the newest again, or rebuild
   it as a structurally equal but physically fresh log (also a miss). *)
type move =
  | Extend of Event.t list
  | Branch of int * Event.t list
  | Again
  | Copy

let gen_move =
  QCheck.Gen.(
    frequency
      [
        6, map (fun es -> Extend es) (list_size (int_range 0 3) gen_event);
        2, map2 (fun k es -> Branch (k, es)) nat (list_size (int_range 0 3) gen_event);
        1, return Again;
        1, return Copy;
      ])

let logs_of moves =
  let rec go history = function
    | [] -> List.rev history
    | m :: rest ->
      let newest = List.hd history in
      let l =
        match m with
        | Extend es -> Log.append_all es newest
        | Branch (k, es) ->
          Log.append_all es (List.nth history (k mod List.length history))
        | Again -> newest
        | Copy -> Log.append_all (Log.chronological newest) Log.empty
      in
      go (l :: history) rest
  in
  go [ Log.empty ] moves

let arb_logs =
  QCheck.make
    ~print:(fun ls -> String.concat "\n" (List.map Log.to_string ls))
    QCheck.Gen.(map logs_of (list_size (int_range 1 25) gen_move))

(* ---- the folds under test ---- *)

(* One fold, compared on every log of a sequence: [f l] for each object
   id, in one memo (as a game would call it) and from scratch. *)
type fold = Fold : string * (int -> Log.t -> ('a, string) result) -> fold

let placement = [ 1, 0; 2, 0; 3, 1 ]

let folds =
  [
    Fold ("Lock_intf.replay_lock", Lock_intf.replay_lock);
    Fold ("Ticket_lock.replay_ticket", Ticket_lock.replay_ticket);
    Fold ("Atomic.replay_cell", Mach.Atomic.replay_cell);
    Fold ("Ipc.replay_chan", Ipc.replay_chan);
    Fold ("Qlock.replay_qlock", Qlock.replay_qlock);
    Fold ("Queue_shared.replay_queue", Queue_shared.replay_queue);
    Fold ("Rwlock.replay_rw", Rwlock.replay_rw);
    Fold ("Tso.replay_buffer", Mach.Tso.replay_buffer);
    Fold ("Tso.replay_memory", Mach.Tso.replay_memory);
    Fold ("Block_cache.replay_entry", Kv.Block_cache.replay_entry);
    Fold ("Pushpull.replay_loc", Mach.Pushpull.replay_loc);
    Fold ("Map_spec.replay_map", fun _ -> Kv.Map_spec.replay_map);
    Fold ("Disk.replay", fun _ -> Ccal_disk.Disk.replay);
    Fold ("Thread_sched.replay_sched", fun _ -> Thread_sched.replay_sched placement);
  ]

let objects = [ 0; 1; 2 ]

let agree (Fold (_, f)) logs =
  let calls () =
    List.concat_map (fun l -> List.map (fun b -> f b l) objects) logs
  in
  let scratch = calls () in
  let memo = Replay.with_memo calls in
  let forced = Replay.from_scratch (fun () -> Replay.with_memo calls) in
  memo = scratch && forced = scratch

let prop_fold_incremental (Fold (name, _) as fold) =
  qtc ~count:150 (name ^ ": incremental = from scratch") arb_logs (agree fold)

(* Same, with every fold sharing one memo and interleaved on each log,
   as the primitives of a composed layer are. *)
let prop_folds_share_memo =
  qtc ~count:100 "all hoisted folds in one memo = from scratch" arb_logs
    (fun logs ->
      let calls () =
        List.concat_map
          (fun l ->
            List.concat_map
              (fun (Fold (_, f)) ->
                List.map
                  (fun b ->
                    match f b l with Ok _ -> None | Error msg -> Some msg)
                  objects)
              folds)
          logs
      in
      Replay.with_memo calls = calls ())

(* ---- targeted cases ---- *)

let count_steps () =
  let steps = ref 0 in
  let r =
    Replay.fold ~init:0 ~step:(fun acc (e : Event.t) ->
        incr steps;
        if String.equal e.tag "bad" then Error (Printf.sprintf "bad at %d" acc)
        else Ok (acc + 1))
  in
  r, steps

let test_extension_folds_only_new_events () =
  let r, steps = count_steps () in
  let l1 = log_of [ ev 1 "a"; ev 1 "b"; ev 2 "c" ] in
  let l2 = Log.append_all [ ev 1 "d"; ev 2 "e" ] l1 in
  Replay.with_memo (fun () ->
      check_int "first call folds the log" 3 (Replay.run_exn r l1);
      check_int "3 steps" 3 !steps;
      check_int "extension" 5 (Replay.run_exn r l2);
      check_int "only the 2 new events" 5 !steps;
      check_int "same log again" 5 (Replay.run_exn r l2);
      check_int "no new steps" 5 !steps;
      (* a branch off l1 is a miss: refold from init *)
      let l3 = Log.append (ev 3 "x") l1 in
      check_int "branch" 4 (Replay.run_exn r l3);
      check_int "refolded 4" 9 !steps);
  (* outside a game every call refolds *)
  check_int "outside" 5 (Replay.run_exn r l2);
  check_int "refolded 5" 14 !steps

let test_stuck_log_first_error () =
  let r, _ = count_steps () in
  let l1 = log_of [ ev 1 "a"; ev 1 "bad"; ev 1 "b" ] in
  let l2 = Log.append_all [ ev 1 "bad" ] l1 in
  let expect = Error "bad at 1" in
  Replay.with_memo (fun () ->
      check_bool "stuck" true (r l1 = expect);
      check_bool "stays stuck with the oldest error" true (r l2 = expect));
  check_bool "scratch agrees" true (r l2 = expect)

let test_memo_dropped_after_game () =
  (* the memo does not outlive [with_memo], even when it raises *)
  let r, steps = count_steps () in
  let l = log_of [ ev 1 "a"; ev 1 "b" ] in
  (try Replay.with_memo (fun () -> ignore (r l); failwith "boom")
   with Failure _ -> ());
  Replay.with_memo (fun () -> ignore (r l));
  check_int "second game refolds" 4 !steps

(* ---- games ---- *)

let kv_game () =
  Kv.Kv_stack.ycsb_game ~seed:3 ~shards:2 ~threads:3 ~read_pct:50 ~ops:6
    ~keyspace:4 ()

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let ticket_game memory =
  let m = Ticket_lock.c_module () in
  ( Ticket_lock.l0 ~memory (),
    List.map (fun i -> i, Prog.Module.link m (lock_client i)) [ 1; 2; 3 ] )

let test_game_incremental_equals_scratch () =
  List.iter
    (fun (name, memory, (layer, threads)) ->
      List.iter
        (fun sched ->
          let play () =
            Game.run (Game.config ~max_steps:20_000 ~memory layer threads sched)
          in
          check_bool
            (Printf.sprintf "%s under %s" name sched.Sched.name)
            true
            (play () = Replay.from_scratch play))
        (Sched.default_suite ~seeds:3))
    [
      "ycsb", Memory.Sc, kv_game ();
      "cache", Memory.Sc, Kv.Kv_stack.cache_game ~entries:2 ~threads:3 ();
      "ticket", Memory.Sc, ticket_game Memory.Sc;
      "ticket (TSO)", Memory.Tso, ticket_game Memory.Tso;
    ]

(* Pool domains each own their games' memos: every jobs count yields the
   identical corpus, equal to the sequential from-scratch one. *)
let test_jobs_deterministic () =
  let layer, threads = kv_game () in
  let scheds () = Ccal_verify.Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:4 in
  let run jobs =
    Ccal_verify.Budget.value
      (Ccal_verify.Explore.run_all_ctx ~ctx:(Ccal_verify.Ctx.make ~jobs ())
         ~max_steps:20_000 layer threads (scheds ()))
  in
  let reference =
    Replay.from_scratch (fun () ->
        List.map
          (fun sched -> Game.run (Game.config ~max_steps:20_000 layer threads sched))
          (scheds ()))
  in
  check_bool "jobs=1 = from scratch" true (run 1 = reference);
  check_bool "jobs=4 = jobs=1" true (run 4 = reference)

let suite =
  List.map prop_fold_incremental folds
  @ [
      prop_folds_share_memo;
      tc "an extension folds only the new events" test_extension_folds_only_new_events;
      tc "a stuck log keeps its oldest error" test_stuck_log_first_error;
      tc "the memo is dropped with its game" test_memo_dropped_after_game;
      tc "games: incremental = from scratch" test_game_incremental_equals_scratch;
      tc "games: jobs 1/4 identical to from scratch" test_jobs_deterministic;
    ]
