(* perfbench: the end-to-end and per-layer benchmark of the checker stack.

   One process runs one workload for a wall-clock window, checks every
   verdict against a known answer, and prints one JSON object as the last
   line of its standard output.

   A workload is a fixed corpus of verdicts (a "round"), replayed until the
   window is spent.  Set-up (input generation, warm-ups, pool spawn, cache
   fill) runs several times and reports its median.  Every time in the
   result is scaled to a host of fixed speed, measured by a reference
   computation around each verdict (see "host speed" below); the wall
   times are printed beside it.

   With [--trace 1] the rounds alternate untraced and traced.  A traced
   round wraps the shared primitives of every layer the benchmark hands to
   a game (same names, timed from outside), times each call into a layer's
   public entry point, turns the [Probe] counters on and records spans
   (workload -> operation -> layer call).  The untraced rounds are the
   baseline of [trace_overhead_pct]; every other per-layer figure comes
   from the traced rounds and is reported per round. *)

open Ccal_core
open Ccal_objects
module V = Ccal_verify
module K = Ccal_kv.Kv_stack
module D = Ccal_disk

let minor_heap_words = 1_048_576
let setup_repeats = 9

(* ------------------------------------------------------------------ *)
(* command line                                                         *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test sizes *)
  corrupt : bool;  (** shift every known answer by one *)
  out_dir : string;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--tiny] [--corrupt-answer] [--out-dir DIR] [--commit ID]";
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: r -> go { a with workload = w } r
    | "--seed" :: n :: r -> go { a with seed = int_of_string n } r
    | "--seconds" :: s :: r -> go { a with seconds = float_of_string s } r
    | "--trace" :: t :: r -> go { a with trace = int_of_string t <> 0 } r
    | "--tiny" :: r -> go { a with tiny = true } r
    | "--corrupt-answer" :: r -> go { a with corrupt = true } r
    | "--out-dir" :: d :: r -> go { a with out_dir = d } r
    | "--commit" :: c :: r -> go { a with commit = c } r
    | x :: _ ->
      prerr_endline ("unknown argument " ^ x);
      usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 10.;
          trace = false;
          tiny = false;
          corrupt = false;
          out_dir = ".bench_out";
          commit = "unknown";
        }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if a.seconds <= 0. then usage ();
  a

(* ------------------------------------------------------------------ *)
(* tracing                                                              *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (V.Verify_clock.now_ns ())
let tracing = ref false

(* The jobs count of the running workload: checker-call time is scaled by
   it when counted as play time, so shares stay per-core. *)
let jobs = ref 1

type prim_acc = {
  calls : int Atomic.t;
  ns : int Atomic.t;
  events : int Atomic.t;  (** log length at each call: events refolded *)
  blocked : int Atomic.t;
}

(* Created on the main domain when a layer is wrapped; the pool domains
   only bump the atomics captured by the wrappers. *)
let prim_accs : (string * prim_acc) list ref = ref []

let prim_acc key =
  match List.assoc_opt key !prim_accs with
  | Some a -> a
  | None ->
    let a =
      {
        calls = Atomic.make 0;
        ns = Atomic.make 0;
        events = Atomic.make 0;
        blocked = Atomic.make 0;
      }
    in
    prim_accs := (key, a) :: !prim_accs;
    a

let add_to a n = ignore (Atomic.fetch_and_add a n)

(* The layer with every shared primitive timed under its own name;
   unchanged outside traced rounds. *)
let wrap_layer (l : Layer.t) =
  if not !tracing then l
  else
    let wrap ((name, p) as prim) =
      match p with
      | Layer.Private _ -> prim
      | Layer.Shared sem ->
        let a = prim_acc (l.Layer.name ^ "." ^ name) in
        ( name,
          Layer.Shared
            (fun tid args log ->
              let t0 = now_ns () in
              let r = sem tid args log in
              add_to a.ns (now_ns () - t0);
              Atomic.incr a.calls;
              add_to a.events (Log.length log);
              (match r with Layer.Block -> Atomic.incr a.blocked | _ -> ());
              r) )
    in
    { l with Layer.prims = List.map wrap l.Layer.prims }

type span = { sname : string; level : string; op : int; ts : int; dur : int }

let spans : span list ref = ref []
let span_count = ref 0
let max_spans = 200_000
let op_id = ref 0

let record level sname ts dur =
  if !tracing && !span_count < max_spans then begin
    incr span_count;
    spans := { sname; level; op = !op_id; ts; dur } :: !spans
  end

(* Per-layer figures of the traced rounds, summed; [unit_] is fixed by the
   first bump of a name. *)
let stat_tbl : (string, float ref * string) Hashtbl.t = Hashtbl.create 64

let bump ?(unit_ = "count") name v =
  if !tracing then
    match Hashtbl.find_opt stat_tbl name with
    | Some (r, _) -> r := !r +. v
    | None -> Hashtbl.add stat_tbl name (ref v, unit_)

let play_ns = ref 0

(* Time one call into a layer's public entry point.  [play] marks calls
   whose time is play time: the game itself, or a checker that plays
   games, counted per core. *)
let call ?(play = false) name f =
  let t0 = now_ns () in
  let r = f () in
  let dur = now_ns () - t0 in
  if !tracing then begin
    bump (name ^ ".calls") 1.;
    bump ~unit_:"ns" (name ^ ".ns") (float dur);
    if play then play_ns := !play_ns + (dur * !jobs);
    record "call" name t0 dur
  end;
  r

(* ------------------------------------------------------------------ *)
(* verdicts and known answers                                           *)
(* ------------------------------------------------------------------ *)

(* [ms] is the verdict's wall time; [host] the host's slowdown while it
   ran (see "host speed" below), so [ms /. host] is its time on a steady
   host. *)
type verdict = { kind : string; ms : float; host : float; ok : bool }

let skew = ref 0
let complaints = ref 0

let complain fmt =
  Printf.ksprintf
    (fun s ->
      if !complaints < 10 then prerr_endline ("perfbench: wrong answer: " ^ s);
      incr complaints)
    fmt

(* [expect] is the only place a known integer answer is compared, so
   [--corrupt-answer] can shift all of them at once. *)
let expect what expected actual =
  let expected = expected + !skew in
  actual = expected
  || (complain "%s: expected %d, got %d" what expected actual;
      false)

let check what cond = cond || (complain "%s" what; false)

(* ---- host speed ---- *)

(* On a shared host the machine's speed drifts: neighbours contend for its
   caches and memory, and every timing here moves with them, by up to a
   factor of two and more, in phases of seconds to minutes.  A fixed
   reference computation timed right before and right after each verdict
   measures that drift, and each verdict's time is scaled to a host on
   which the reference takes [reference_ms] (a 2-core Xeon VM at its
   quietest).  The reference does the two kinds of work the checkers do:
   it allocates and builds a balanced map, a hash table and lists (as
   certification does), and it walks a long list already in the heap (as
   log replay does); either alone tracks one kind of verdict and misjudges
   the other by up to a fifth when the host's load changes.  It starts on
   an empty minor heap and allocates less than it holds, so it never
   collects: the program's heap does not change its time. *)
let reference_ms = 4.0

module Int_map = Map.Make (Int)

let reference_list = List.init 20_000 (fun i -> i, string_of_int i)

let reference_work () =
  let m = ref Int_map.empty and l = ref [] and h = Hashtbl.create 64 in
  for i = 1 to 4_000 do
    let k = (i * 7919) land 8191 in
    m := Int_map.add k (string_of_int i) !m;
    l := (k, i) :: !l;
    Hashtbl.replace h (k land 63) i;
    if i land 511 = 0 then l := List.rev_map (fun (a, b) -> b, a) !l
  done;
  let walked = ref 0 in
  for _ = 1 to 40 do
    walked := List.fold_left (fun acc (k, v) -> acc + k + String.length v) !walked reference_list
  done;
  Int_map.cardinal !m + List.length !l + Hashtbl.length h + !walked

(* Wall ns spent in [reference], collection included: single-threaded
   time that [Parallel.cpu_util] leaves out. *)
let reference_ns = ref 0

let reference () =
  let start = now_ns () in
  Gc.minor ();
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (reference_work ()));
  let t1 = now_ns () in
  reference_ns := !reference_ns + (t1 - start);
  float (t1 - t0) /. 1e6

(* Time [f] in wall ms, with the host's slowdown over it: the mean of the
   reference before and after, over [reference_ms]. *)
let host_timed f =
  let r0 = reference () in
  let t0 = now_ns () in
  let x = f t0 in
  let dur = now_ns () - t0 in
  let r1 = reference () in
  x, float dur /. 1e6, (r0 +. r1) /. 2. /. reference_ms

let last_major = ref 0

(* One operation: a verdict, timed, with its own operation id.  It starts
   from a heap collected within the last second, so no verdict pays for
   much garbage of the ones before. *)
let operation kind f =
  if now_ns () - !last_major >= 1_000_000_000 then begin
    Gc.full_major ();
    last_major := now_ns ()
  end;
  incr op_id;
  let ok, ms, host =
    host_timed (fun t0 ->
        let ok = try f () with e -> complain "%s raised %s" kind (Printexc.to_string e); false in
        record "operation" kind t0 (now_ns () - t0);
        ok)
  in
  { kind; ms; host; ok }

let steady_ms v = v.ms /. v.host

(* ------------------------------------------------------------------ *)
(* workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  wjobs : int;
  setup : unit -> verdict list;
      (** build inputs, warm up, fill caches; any checks it makes *)
  round : int -> verdict list;  (** one pass of the corpus *)
  headline : verdict list -> (string * float * string) list;
      (** the workload's own end-to-end figures, over all measured verdicts *)
  finish : unit -> (string * float * string) list;
      (** clean up; per-layer figures read once, after the rounds *)
}

let vi = Value.int

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let spawn n client = List.init n (fun k -> k + 1, client (k + 1))
let sum_ms vs = List.fold_left (fun s v -> s +. steady_ms v) 0. vs

(* ---- kv-ycsb: the YCSB op streams over the sharded table ---- *)

let kv_ycsb a =
  let threads, ops = if a.tiny then 2, 5 else 8, 50 in
  let shards = 4 and keyspace = 16 in
  (* Every op stream and random schedule derives from the workload seed;
     the game receives only the generated programs and schedulers. *)
  let derive round slot =
    Sched.splitmix ((a.seed * 1_000_003) + (round * 8) + slot) land 0x3FFF_FFFF
  in
  let play ~round ~slot ~read_pct ~random =
    let layer, ts =
      K.ycsb_game ~seed:(derive round slot) ~shards ~threads ~read_pct ~ops
        ~keyspace ()
    in
    let sched =
      if random then Sched.random ~seed:(derive round (slot + 4))
      else Sched.round_robin
    in
    let cfg = Game.config ~max_steps:5_000_000 (wrap_layer layer) ts sched in
    operation (Printf.sprintf "ycsb-%d" read_pct) (fun () ->
        let o = call ~play:true "Game.run" (fun () -> Game.run cfg) in
        check "kv play ended All_done" (o.Game.status = Game.All_done)
        && expect "kv threads finished" threads (List.length o.Game.results))
  in
  let ops_per_s read_pct vs =
    let vs = List.filter (fun v -> v.kind = Printf.sprintf "ycsb-%d" read_pct) vs in
    float (List.length vs * threads * ops) /. (sum_ms vs /. 1000.)
  in
  {
    wjobs = 1;
    setup = (fun () -> [ play ~round:(-1) ~slot:0 ~read_pct:95 ~random:false ]);
    round =
      (fun r ->
        List.map
          (fun (slot, read_pct, random) -> play ~round:r ~slot ~read_pct ~random)
          [ 0, 95, false; 1, 50, false; 2, 95, true; 3, 50, true ]);
    headline =
      (fun vs ->
        [
          "kv_read_ops_per_s", ops_per_s 95 vs, "ops/s";
          "kv_write_ops_per_s", ops_per_s 50 vs, "ops/s";
        ]);
    finish = (fun () -> []);
  }

(* ---- explore: the schedule-space games ---- *)

type dpor_game = {
  gname : string;
  memory : Memory.t;
  depth : int;
  build : unit -> Layer.t * (Event.tid * Prog.t) list;
  known : V.Dpor.stats -> bool;
}

(* Known answers: distinct-log counts from the exhaustive oracle
   ([ccal explore GAME --mode events] prints both sides).  The headline
   games run at depth 6, not the depth 8 of the committed engine table:
   at depth 8 the workload holds ~330 MB and a run holds ten verdicts,
   too few for a median; at depth 6 a verdict takes a few hundred ms. *)
let distinct_is name n (s : V.Dpor.stats) =
  expect (name ^ " distinct logs") n s.V.Dpor.distinct_logs

let dpor_corpus ~tiny =
  let ticket n =
    let m = Ticket_lock.c_module () in
    Ticket_lock.l0 (), spawn n (fun i -> Prog.Module.link m (lock_client i))
  in
  let disk modul client () =
    D.Wal.underlay ~crashes:true (), spawn 2 (fun i -> Prog.Module.link modul (client i))
  in
  let sb =
    match Ccal_machine.Litmus.find "SB" with
    | Some t -> t
    | None -> failwith "litmus test SB is missing"
  in
  [
    (if tiny then
       { gname = "ticket-3t"; memory = Memory.Sc; depth = 5;
         build = (fun () -> ticket 3); known = distinct_is "ticket-3t d5" 201 }
     else
       { gname = "ticket-4t"; memory = Memory.Sc; depth = 6;
         build = (fun () -> ticket 4); known = distinct_is "ticket-4t d6" 3_145 });
    { gname = "wal"; memory = Memory.Sc; depth = 6;
      build = disk (D.Wal.module_ ()) D.Wal.client; known = distinct_is "wal d6" 10 };
    { gname = "durable-kv"; memory = Memory.Sc; depth = 6;
      build = disk (D.Durable_kv.module_ ()) D.Durable_kv.client;
      known = distinct_is "durable-kv d6" 13 };
    { gname = "kv-composed"; memory = Memory.Sc; depth = 6;
      build = (fun () -> K.composed_game ~shards:2 ~entries:2 ~threads:2 ());
      known = distinct_is "kv-composed d6" 13 };
    { gname = "litmus-SB-tso"; memory = Memory.Tso; depth = 8;
      build = (fun () -> Ccal_machine.Tso.machine_layer Memory.Tso, sb.Ccal_machine.Litmus.threads);
      known = distinct_is "litmus:SB tso d8" 8 };
  ]

(* The timed run plays at jobs=1: on a 2-core host the jobs=2 verdicts
   spread by a quarter from round to round, too much for the gate.  The
   traced run plays at jobs=2, the host's default, so the pool's
   per-layer figures (Parallel.cpu_util, Parallel.jobs_run) are read where
   it works. *)
let explore a =
  let jobs = if a.trace then 2 else 1 in
  let ctx = V.Ctx.make ~jobs () in
  let corpus = dpor_corpus ~tiny:a.tiny in
  let race_threads, race_depth, race_runs = if a.tiny then 3, 5, 243 else 5, 6, 15_625 in
  let dpor_one g =
    let layer, threads = g.build () in
    let ctx = V.Ctx.with_memory g.memory ctx in
    match
      call ~play:true "Dpor.explore_ctx" (fun () ->
          V.Dpor.explore_ctx ~ctx ~independence:V.Dpor.Commuting_events
            ~engine:V.Ctx.Engine.default ~depth:g.depth (wrap_layer layer) threads)
    with
    | V.Budget.Complete r ->
      let s = r.V.Dpor.stats in
      bump "Dpor.schedules_run" (float s.V.Dpor.schedules_run);
      bump "Dpor.sleep_set_prunes" (float s.V.Dpor.sleep_set_prunes);
      bump "Dpor.sym_prunes" (float s.V.Dpor.sym_prunes);
      bump "Dpor.distinct_logs" (float s.V.Dpor.distinct_logs);
      g.known s
    | V.Budget.Exhausted _ -> check (g.gname ^ " exploration exhausted") false
  in
  let races depth =
    let threads = spawn race_threads lock_client in
    let tids = List.map fst threads in
    let scheds =
      call "Explore.exhaustive_scheds" (fun () -> V.Explore.exhaustive_scheds ~tids ~depth)
    in
    call ~play:true "Races.check_ctx" (fun () ->
        V.Races.check_ctx ~ctx ~max_steps:200_000 ~scheds
          (wrap_layer (Lock_intf.layer "Llock")) threads)
  in
  {
    wjobs = jobs;
    setup =
      (fun () ->
        (* warm both code paths; at jobs=2 the pool is spawned afresh *)
        V.Parallel.shutdown_all ();
        ignore (races 4);
        let layer, threads = (List.hd corpus).build () in
        ignore
          (V.Dpor.explore_ctx ~ctx ~independence:V.Dpor.Commuting_events
             ~engine:V.Ctx.Engine.default ~depth:4 layer threads);
        []);
    round =
      (fun _ ->
        (* the headline game and the small games are separate verdicts,
           so a round's three verdicts sit at three sizes and the
           quantiles fall inside a cluster, not between two *)
        let dpor kind games =
          operation kind (fun () -> List.fold_left (fun ok g -> dpor_one g && ok) true games)
        in
        let headline = dpor "dpor-headline" [ List.hd corpus ] in
        let games = dpor "dpor-games" (List.tl corpus) in
        let races =
          operation "races" (fun () ->
              match races race_depth with
              | V.Races.Race_free { runs } ->
                expect
                  (Printf.sprintf "llock-%dt d%d race-free runs" race_threads race_depth)
                  race_runs runs
              | _ -> check "llock race check did not report race-free" false)
        in
        [ headline; games; races ]);
    headline =
      (fun vs ->
        let mean kinds =
          let n = List.length (List.filter (fun v -> v.kind = "races") vs) in
          sum_ms (List.filter (fun v -> List.mem v.kind kinds) vs) /. 1000. /. float n
        in
        [
          "dpor_verdict_s", mean [ "dpor-headline"; "dpor-games" ], "s";
          "race_verdict_s", mean [ "races" ], "s";
        ]);
    finish = (fun () -> []);
  }

(* ---- certify / certify-warm: the certificate corpus at jobs=1 ---- *)

let rule_name = function
  | `Cert r -> (
    match r with
    | Calculus.Empty -> "Empty"
    | Calculus.Fun -> "Fun"
    | Calculus.Vcomp -> "Vcomp"
    | Calculus.Hcomp -> "Hcomp"
    | Calculus.Wk -> "Wk"
    | Calculus.Pcomp -> "Pcomp")
  | `Linking -> "Link"
  | `Soundness -> "Sound"
  | `Adversarial -> "Adversarial"

let stack_verdict lock memory ctx =
  let ctx = V.Ctx.with_memory memory ctx in
  match
    call ~play:true "Stack.verify_all_ctx" (fun () -> V.Stack.verify_all_ctx ~ctx ~lock ())
  with
  | V.Budget.Complete (Ok { V.Stack.completed = r; next_edge = None }) ->
    List.iter
      (fun (e : V.Stack.edge) ->
        let k = "Stack.edge." ^ rule_name e.V.Stack.kind in
        bump ~unit_:"ms" (k ^ ".ms") e.V.Stack.millis;
        bump (k ^ ".checks") (float e.V.Stack.checks))
      r.V.Stack.edges;
    expect "stack checks" 85 r.V.Stack.total_checks
  | V.Budget.Complete (Error msg) -> check ("stack failed: " ^ msg) false
  | _ -> check "stack did not complete" false

let kv_verdict ?threads ?strategy expected ctx =
  let ctx = match strategy with Some s -> V.Ctx.with_strategy s ctx | None -> ctx in
  match call ~play:true "Kv_stack.verify_ctx" (fun () -> K.verify_ctx ~ctx ?threads ()) with
  | V.Budget.Complete (Ok r) ->
    List.iteri
      (fun i (e : K.edge) ->
        bump ~unit_:"ms"
          (Printf.sprintf "Kv_stack.edge.%s.ms" (List.nth [ "ht"; "cache"; "composed" ] (min i 2)))
          e.K.millis)
      r.K.edges;
    expect "kv stack checks" expected r.K.total_checks
  | V.Budget.Complete (Error msg) -> check ("kv stack failed: " ^ msg) false
  | _ -> check "kv stack did not complete" false

let wrap_edge (e : V.Crash.edge) = { e with V.Crash.layer = wrap_layer e.V.Crash.layer }

let crash_verdict ctx =
  let edges = [ wrap_edge (D.Wal.crash_edge ()); wrap_edge (D.Durable_kv.crash_edge ()) ] in
  match call ~play:true "Crash.check_ctx" (fun () -> V.Crash.check_ctx ~ctx edges) with
  | V.Budget.Complete (Ok r) ->
    let edge (e : V.Crash.edge_report) (s, c, rec_) =
      bump "Crash.recoveries" (float e.V.Crash.recoveries);
      bump "Crash.crash_points" (float e.V.Crash.crash_points);
      bump ~unit_:"ms" "Crash.ms" e.V.Crash.millis;
      let n = e.V.Crash.edge_name in
      let a = expect (n ^ " schedules") s e.V.Crash.schedules in
      let b = expect (n ^ " crash points") c e.V.Crash.crash_points in
      let d = expect (n ^ " recoveries") rec_ e.V.Crash.recoveries in
      a && b && d
    in
    (match r.V.Crash.edges with
    | [ w; d ] ->
      let a = edge w (4, 28, 90) in
      edge d (4, 28, 85) && a
    | _ -> check "crash report has two edges" false)
  | V.Budget.Complete (Error f) ->
    check (Format.asprintf "crash refinement failed: %a" V.Crash.pp_failure f) false
  | V.Budget.Exhausted _ -> check "crash check did not complete" false

(* Negative control: the unsynced WAL must fail, at its named crash point. *)
let unsynced_verdict ctx =
  match
    call ~play:true "Crash.check_ctx" (fun () ->
        V.Crash.check_ctx ~ctx [ wrap_edge (D.Wal.crash_edge ~unsynced:true ()) ])
  with
  | V.Budget.Complete (Error f) ->
    check "unsynced fails on edge wal-unsynced" (f.V.Crash.f_edge = "wal-unsynced")
    && expect "unsynced crash point" 7 f.V.Crash.f_index
  | _ -> check "negative control unsynced passed" false

(* Every test conforms in both modes; SB and R (the negative controls of
   the memory model) gain exactly one outcome under TSO, the rest none. *)
let litmus_verdict ctx =
  let t0 = now_ns () in
  let pairs = call ~play:true "Litmus.run_both" (fun () -> V.Litmus.run_both ~ctx ()) in
  bump ~unit_:"ms" "Litmus.ms" (float (now_ns () - t0) /. 1e6);
  let pair (sc, tso) =
    let name = sc.V.Litmus.name in
    let gained =
      List.filter (fun o -> not (List.mem o sc.V.Litmus.observed)) tso.V.Litmus.observed
    in
    check (name ^ " conforms under SC and TSO") (V.Litmus.ok sc && V.Litmus.ok tso)
    && expect
         (name ^ " outcomes TSO gains over SC")
         (if name = "SB" || name = "R" then 1 else 0)
         (List.length gained)
  in
  expect "litmus tests" (List.length Ccal_machine.Litmus.tests) (List.length pairs)
  && List.for_all pair pairs

(* Five verdicts a round, so that with whole rounds the pooled p50 falls
   in the middle of the third-slowest kind and p90 in the middle of the
   slowest, never on the boundary between two kinds. *)
let certify a ~warm =
  let base = V.Ctx.make ~jobs:1 () in
  let cache = ref None in
  let dirs = ref [] in
  let all checks ctx = List.for_all Fun.id (List.map (fun f -> f ctx) checks) in
  let corpus =
    [
      ( "stack",
        all
          [
            stack_verdict `Ticket Memory.Sc;
            stack_verdict `Ticket Memory.Tso;
            stack_verdict `Mcs Memory.Sc;
            stack_verdict `Mcs Memory.Tso;
          ] );
      "kv-default", kv_verdict 59;
    ]
    @ (if a.tiny then []
       else [ "kv-t4-dpor8", kv_verdict ~threads:4 ~strategy:(V.Ctx.Engine.dpor ~depth:8) 2845 ])
    @ [ "crash", all [ crash_verdict; unsynced_verdict ]; "litmus", litmus_verdict ]
  in
  let pass () =
    let ctx = match !cache with Some c -> V.Ctx.with_cache c base | None -> base in
    List.map (fun (kind, f) -> operation kind (fun () -> f ctx)) corpus
  in
  let session () =
    match !cache with
    | None -> None
    | Some c -> Some (call "Cache.session_stats" (fun () -> V.Cache.session_stats c))
  in
  let fingerprints () =
    List.iter
      (fun (lock, memory) ->
        ignore
          (call "Stack.edge_fingerprints" (fun () -> V.Stack.edge_fingerprints ~lock ~memory ())))
      [ `Ticket, Memory.Sc; `Ticket, Memory.Tso; `Mcs, Memory.Sc; `Mcs, Memory.Tso ];
    ignore (call "Kv_stack.fingerprints" (fun () -> K.fingerprints ()))
  in
  {
    wjobs = 1;
    setup =
      (fun () ->
        if warm then begin
          let dir =
            Filename.concat a.out_dir
              (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) (List.length !dirs))
          in
          dirs := dir :: !dirs;
          cache := Some (call "Cache.create" (fun () -> V.Cache.create ~dir ()))
        end;
        pass ());
    round =
      (fun _ ->
        let before = session () in
        let vs = pass () in
        (match before, session () with
        | Some s0, Some s1 ->
          bump "Cache.hits" (float (s1.V.Cache.hits - s0.V.Cache.hits));
          bump "Cache.misses" (float (s1.V.Cache.misses - s0.V.Cache.misses));
          bump "Cache.invalidations"
            (float (s1.V.Cache.invalidations - s0.V.Cache.invalidations))
        | _ -> ());
        if !tracing then fingerprints ();
        vs);
    headline = (fun _ -> []);
    finish =
      (fun () ->
        let disk =
          match !cache with
          | Some c ->
            let d = V.Cache.disk_stats c in
            [
              "Cache.entries", float d.V.Cache.entries, "count";
              "Cache.bytes", float d.V.Cache.bytes, "bytes";
            ]
          | None -> []
        in
        List.iter
          (fun dir ->
            if Sys.file_exists dir then begin
              Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
              Sys.rmdir dir
            end)
          !dirs;
        disk);
  }

(* ------------------------------------------------------------------ *)
(* measurement and report                                               *)
(* ------------------------------------------------------------------ *)

let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(* The process's high-water resident set, from Linux's /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float kb /. 1024.)
    else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_float v)
             (json_string u))
         ms)
  ^ "}"

let stamp a =
  let g = Gc.get () in
  [
    "commit", json_string a.commit;
    "nproc", string_of_int (Domain.recommended_domain_count ());
    "ocaml", json_string Sys.ocaml_version;
    "minor_heap_words", string_of_int g.Gc.minor_heap_size;
    "space_overhead", string_of_int g.Gc.space_overhead;
    "workload", json_string a.workload;
    "seed", string_of_int a.seed;
    "seconds", json_float a.seconds;
    "trace", string_of_bool a.trace;
  ]

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* Chrome trace format: one complete event per span; [args.op] ties the
   layer calls of one operation together. *)
let write_spans a path =
  let t0 = List.fold_left (fun m s -> min m s.ts) max_int !spans in
  let ev s =
    Printf.sprintf
      "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \
       \"tid\": 1, \"args\": {\"op\": %d, \"workload\": %s}}"
      (json_string s.sname) (json_string s.level)
      (float (s.ts - t0) /. 1000.)
      (float s.dur /. 1000.) s.op (json_string a.workload)
  in
  write_file path
    ("{\"stamp\": " ^ obj (stamp a) ^ ",\n\"traceEvents\": [\n"
    ^ String.concat ",\n" (List.rev_map ev !spans)
    ^ "\n]}\n")

let () =
  let a = parse_args () in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  if a.corrupt then skew := 1;
  let w =
    match a.workload with
    | "kv-ycsb" -> kv_ycsb a
    | "explore" -> explore a
    | "certify" -> certify a ~warm:false
    | "certify-warm" -> certify a ~warm:true
    | w ->
      prerr_endline
        ("unknown workload " ^ w ^ " (expected kv-ycsb, explore, certify or certify-warm)");
      exit 2
  in
  jobs := w.wjobs;
  if not (Sys.file_exists a.out_dir) then Sys.mkdir a.out_dir 0o755;
  (* set-up, several times *)
  let setup_checks = ref [] in
  let setups =
    List.init setup_repeats (fun _ ->
        let checks, ms, host = host_timed (fun _ -> w.setup ()) in
        setup_checks := checks @ !setup_checks;
        ms /. host /. 1000.)
  in
  (* measured rounds; a traced run alternates untraced and traced rounds
     and needs one of each *)
  let verdicts = ref [] and traced_rounds = ref 0 in
  let round_ms = ref [] in
  let wall0 = now_ns () and cpu0 = cpu_s () and ref0 = !reference_ns in
  let par0 = V.Parallel.stats () in
  let probe0 = ref [] in
  let rec go r =
    let elapsed = float (now_ns () - wall0) /. 1e9 in
    (* start a round only if one of average length still fits the window *)
    let fits = elapsed +. (elapsed /. float (max 1 r)) <= a.seconds in
    if r = 0 || fits || (a.trace && r < 2) then begin
      tracing := a.trace && r mod 2 = 1;
      if !tracing then begin
        incr traced_rounds;
        Ccal_core.Probe.enable ();
        probe0 := Ccal_core.Probe.counters ()
      end;
      let t0 = now_ns () in
      let vs = w.round r in
      record "workload" a.workload t0 (now_ns () - t0);
      if !tracing then begin
        List.iter
          (fun (n, d) -> bump ("Probe." ^ n) (float d))
          (Ccal_core.Probe.diff_counters !probe0 (Ccal_core.Probe.counters ()));
        Ccal_core.Probe.disable ()
      end;
      round_ms := (!tracing, List.length vs, sum_ms vs) :: !round_ms;
      verdicts := vs @ !verdicts;
      go (r + 1)
    end
  in
  go 0;
  let ref_s = float (!reference_ns - ref0) /. 1e9 in
  let wall = (float (now_ns () - wall0) /. 1e9) -. ref_s in
  let cpu = cpu_s () -. cpu0 -. ref_s in
  let par1 = V.Parallel.stats () in
  let finish_rows = w.finish () in
  let vs = List.rev !verdicts in
  let all_checks = !setup_checks @ vs in
  let attempted = List.length all_checks in
  let failed = List.length (List.filter (fun v -> not v.ok) all_checks) in
  let setup_s = median setups in
  let ms = List.map steady_ms vs in
  let end_to_end =
    [
      "setup_s", setup_s, "s";
      (* the median round, so a burst of host load moves it less *)
      "verdicts_per_s",
      median (List.map (fun (_, n, ms) -> float n /. (ms /. 1000.)) !round_ms),
      "1/s";
      "verdict_ms_p50", median ms, "ms";
      "verdict_ms_p90", percentile 0.9 ms, "ms";
      "peak_rss_mb", peak_rss_mb (), "MB";
    ]
  in
  let fail_rate = float failed /. float attempted in
  Printf.printf "stamp %s\n" (obj (stamp a));
  List.iter
    (fun (n, v, u) -> Printf.printf "%-22s %14.4f %s\n" n v u)
    (end_to_end @ w.headline vs
    @ [
        (* the same figures unscaled, as the wall clock read them *)
        "wall_verdict_ms_p50", median (List.map (fun v -> v.ms) vs), "ms";
        "wall_verdict_ms_p90", percentile 0.9 (List.map (fun v -> v.ms) vs), "ms";
        "host_slowdown", median (List.map (fun v -> v.host) vs), "x";
        "fail_rate", fail_rate, "wrong/attempted";
      ]);
  Printf.printf "verdicts %d in %.2f s outside the reference loop (%d failed)\n"
    (List.length vs) wall failed;
  List.iter
    (fun kind ->
      let of_kind = List.filter (fun v -> v.kind = kind) vs in
      let ms = List.map steady_ms of_kind and wall = List.map (fun v -> v.ms) of_kind in
      Printf.printf
        "  %-16s n=%-6d steady min %9.3f median %9.3f max %9.3f ms; wall median %9.3f ms; host x%.3f\n"
        kind (List.length ms) (List.fold_left min infinity ms) (median ms)
        (List.fold_left max neg_infinity ms) (median wall)
        (median (List.map (fun v -> v.host) of_kind)))
    (List.sort_uniq compare (List.map (fun v -> v.kind) vs));
  let metrics =
    if not a.trace then end_to_end
    else begin
      let n = float (max 1 !traced_rounds) in
      let per_round name = match Hashtbl.find_opt stat_tbl name with Some (r, _) -> !r /. n | None -> 0. in
      let prims =
        List.sort compare
          (List.map
             (fun (k, p) -> k, Atomic.get p.calls, Atomic.get p.ns, Atomic.get p.events, Atomic.get p.blocked)
             !prim_accs)
      in
      let tot f = List.fold_left (fun s p -> s + f p) 0 prims in
      let prim_ns = tot (fun (_, _, ns, _, _) -> ns) in
      let prim_calls = tot (fun (_, c, _, _, _) -> c) in
      let prim_events = tot (fun (_, _, _, e, _) -> e) in
      let blocked = tot (fun (_, _, _, _, b) -> b) in
      let self_ns = !play_ns - prim_ns in
      let traced_ms = List.filter_map (fun (t, _, m) -> if t then Some m else None) !round_ms in
      let plain_ms = List.filter_map (fun (t, _, m) -> if t then None else Some m) !round_ms in
      let mean l = List.fold_left ( +. ) 0. l /. float (List.length l) in
      let ratio x y = if y = 0. then 0. else x /. y in
      let cache_hits = per_round "Cache.hits" and cache_misses = per_round "Cache.misses" in
      let dpor_run = per_round "Dpor.schedules_run" in
      let per_layer =
        [
          "Game.prim_share", ratio (float prim_ns) (float !play_ns), "ratio";
          "Game.prim_ns", float prim_ns /. n, "ns";
          "Game.self_ns", float self_ns /. n, "ns";
          "Game.prim_calls", float prim_calls /. n, "count";
          "Game.events_per_call", ratio (float prim_events) (float prim_calls), "events";
          "Game.blocked", float blocked /. n, "count";
          "Probe.replay_steps", per_round "Probe.replay_steps", "count";
          "Probe.schedules_run", per_round "Probe.schedules_run", "count";
          "Probe.race_checks", per_round "Probe.race_checks", "count";
          "Dpor.schedules_run", dpor_run, "count";
          "Dpor.sleep_set_prunes", per_round "Dpor.sleep_set_prunes", "count";
          "Dpor.distinct_ratio", ratio (per_round "Dpor.distinct_logs") dpor_run, "ratio";
          "Parallel.cpu_util", cpu /. (wall *. float w.wjobs), "ratio";
          "Cache.hits", cache_hits, "count";
          "Cache.hit_ratio", ratio cache_hits (cache_hits +. cache_misses), "ratio";
          "Crash.recoveries", per_round "Crash.recoveries", "count";
          "trace_overhead_pct", 100. *. (ratio (mean traced_ms) (mean plain_ms) -. 1.), "%";
        ]
      in
      (* the full table: every wrapped primitive, every timed entry
         point, every counter read *)
      let rows =
        List.concat_map
          (fun (k, c, ns, e, b) ->
            [
              k ^ ".calls", float c /. n, "count";
              k ^ ".ns", float ns /. n, "ns";
              k ^ ".log_events", float e /. n, "count";
              k ^ ".blocked", float b /. n, "count";
            ])
          prims
        @ List.sort compare
            (Hashtbl.fold
               (fun k (r, u) acc ->
                 if List.exists (fun (k', _, _) -> k = k') per_layer then acc
                 else (k, !r /. n, u) :: acc)
               stat_tbl [])
        @ finish_rows
        @ [
            "Parallel.batches", float (par1.V.Parallel.batches - par0.V.Parallel.batches), "count";
            "Parallel.jobs_run", float (par1.V.Parallel.jobs_run - par0.V.Parallel.jobs_run), "count";
            "traced_rounds", n, "count";
          ]
      in
      List.iter
        (fun (k, v, u) -> Printf.printf "layer %-48s %16.3f %s\n" k v u)
        (per_layer @ rows);
      write_file
        (Filename.concat a.out_dir (a.workload ^ "-layers.json"))
        (obj [ "stamp", obj (stamp a); "rows", metrics_json (per_layer @ rows) ] ^ "\n");
      write_spans a (Filename.concat a.out_dir (a.workload ^ "-spans.json"));
      per_layer
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (failed = 0) attempted failed (metrics_json metrics)
