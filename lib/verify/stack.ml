open Ccal_core
open Ccal_objects

type edge = {
  edge_name : string;
  kind : [ `Cert of Calculus.rule_name | `Linking | `Soundness | `Adversarial ];
  checks : int;
  millis : float;
  counters : (string * int) list;
      (* this edge's telemetry counter growth; [] when telemetry is off *)
}

let edge_kind : edge Cache.kind = Cache.kind "edge"

type report = {
  edges : edge list;
  total_checks : int;
  total_millis : float;
}

type progress = { completed : report; next_edge : string option }

let kind_label = function
  | `Cert rule ->
    (match rule with
    | Calculus.Empty -> "Empty"
    | Calculus.Fun -> "Fun"
    | Calculus.Vcomp -> "Vcomp"
    | Calculus.Hcomp -> "Hcomp"
    | Calculus.Wk -> "Wk"
    | Calculus.Pcomp -> "Pcomp")
  | `Linking -> "Link"
  | `Soundness -> "Sound"
  | `Adversarial -> "Adv"

let pp_counters fmt counters =
  if counters <> [] then
    Format.fprintf fmt "          %s@."
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counters))

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "  [%-5s] %-55s %4d checks  %6.1f ms@."
        (kind_label e.kind) e.edge_name e.checks e.millis;
      pp_counters fmt e.counters)
    r.edges;
  Format.fprintf fmt "  total: %d checks in %.1f ms@]" r.total_checks r.total_millis

(* The verdict-stable projection of the report: everything except the
   timing fields.  This is the "bit-identical" contract of the
   certificate cache — a warm run prints exactly this text, byte for
   byte, for every jobs count (DESIGN "Certificate cache"), so the CI
   cache leg can [cmp] cold and warm runs. *)
let pp_report_canonical fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "  [%-5s] %-55s %4d checks@." (kind_label e.kind)
        e.edge_name e.checks;
      pp_counters fmt e.counters)
    r.edges;
  Format.fprintf fmt "  total: %d checks@]" r.total_checks

(* Like [Verify_clock.timed], but also the edge's telemetry counter
   growth — [Probe.counters] snapshots are cheap (a handful of atomics)
   and empty when telemetry is off, so this adds nothing to the
   uninstrumented path. *)
let timed f =
  let before = Probe.counters () in
  let r, ms = Verify_clock.timed f in
  (r, ms, Probe.diff_counters before (Probe.counters ()))

let vi = Value.int

(* The client workloads of the game-driving edges, shared between the
   edge bodies and the edge fingerprints so the two can never drift. *)

let faa_round i =
  Prog.seq_all
    [ Prog.call "faa" [ vi 0; vi 1 ]; Prog.call "faa" [ vi 0; vi 1 ];
      Prog.ret (vi i) ]

let lock_client m i =
  Prog.Module.link m
    (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
         Prog.call "rel" [ vi 0; vi i ]))

let queue_client i =
  Prog.seq_all
    [ Prog.call "enQ_s" [ vi 0; vi (10 + i) ]; Prog.call "deQ_s" [ vi 0 ] ]

let mt_placement = [ 1, 0; 2, 0; 3, 1 ]

let mt_prog i =
  Prog.seq_all
    [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi i ];
      Prog.call Thread_sched.yield_tag []; Prog.call Thread_sched.exit_tag [] ]

let ipc_placement = [ 1, 1; 2, 2; 9, 9 ]

let ipc_client i =
  if i = 1 then
    Prog.seq_all
      [ Prog.call "send" [ vi 5; vi 10 ]; Prog.call "send" [ vi 5; vi 11 ];
        Prog.call "send" [ vi 5; vi 12 ]; Prog.call Thread_sched.exit_tag [] ]
  else
    Prog.seq_all
      [ Prog.call "recv" [ vi 5 ]; Prog.call "recv" [ vi 5 ];
        Prog.call "recv" [ vi 5 ]; Prog.call Thread_sched.exit_tag [] ]

(* ------------------------------------------------------------------ *)
(* The stack as data.

   One record per edge: its name, its kind, the fold of its cache key
   and its run.  The key covers exactly what the edge's verdict depends
   on: the ClightX sources of the objects it certifies (via
   [Csyntax.fp_fn] — the structural hash, so editing one object module
   invalidates exactly the edges whose key folds it in), the layer
   interfaces, the client workloads, and — for the game-driving edges
   only — the scheduler-suite identity (seeds or strategy).  The name
   and the memory mode open every key, so a verdict computed under SC is
   never served for a TSO query.  [jobs] is never part of a key:
   verdicts are identical across jobs counts.  An edge without a key
   (the adversarial one: its verdict is a budget demonstration, not a
   cacheable fact) always runs live. *)

type kind = [ `Cert of Calculus.rule_name | `Linking | `Soundness | `Adversarial ]

type spec = {
  name : string;
  kind : kind;
  key : (Fingerprint.state -> Fingerprint.state) option;
  run : unit -> (int, string) result option * float * (string * int) list;
      (** the edge's check count, [None] when the budget stopped it, with
          its {!timed} time and counter growth *)
}

(* The two interchangeable spinlock implementations (Sec. 6). *)
module type LOCK = sig
  val l0 : ?memory:Memory.t -> unit -> Layer.t
  val overlay : ?bound:int -> unit -> Layer.t
  val acq_fn : Ccal_clight.Csyntax.fn
  val rel_fn : Ccal_clight.Csyntax.fn
  val c_module : unit -> Prog.Module.t

  val certify :
    ?max_moves:int -> ?memory:Memory.t -> ?focus:Event.tid list ->
    ?use_asm:bool -> unit -> (Calculus.cert, Calculus.error) result
end

let lock_impl = function
  | `Ticket -> "ticket", (module Ticket_lock : LOCK)
  | `Mcs -> "mcs", (module Mcs_lock : LOCK)

let fp_fns st fns = List.fold_left Ccal_clight.Csyntax.fp_fn st fns

let fp_placement st p =
  Fingerprint.list
    (fun st (t, c) -> Fingerprint.int (Fingerprint.int st t) c)
    st p

let edge_key ~memory name fold =
  Fingerprint.finish
    (fold
       (Fingerprint.memory
          (Fingerprint.string
             (Fingerprint.string Fingerprint.empty "stack-edge")
             name)
          memory))

(* Edge bodies compute in [('a, string) result option]: [None] when the
   budget stopped an inner checker. *)
let ( let* ) r f =
  match r with Some (Ok v) -> f v | Some (Error e) -> Some (Error e) | None -> None

let cert r = Some (Result.map_error (Format.asprintf "%a" Calculus.pp_error) r)
let checks c = Some (Ok (Calculus.count_checks c))

let refined outcome =
  Option.map
    (Result.fold
       ~ok:(fun r -> Ok r.Refinement.scheds_checked)
       ~error:(fun f -> Error (Format.asprintf "%a" Refinement.pp_failure f)))
    (Check.finished outcome)

(* A linking theorem checked schedule by schedule: the count of
   schedules, or the first failure.  The checks take no stop closure, so
   they cost nothing against a step budget; a deadline or a cancel
   still stops the scan between schedules. *)
let linking ~ctx check scheds =
  Check.finished
    (Check.scan ~ctx ~cost:(fun _ -> 0) ~cut:Result.is_error
       (fun ~stop:_ sched -> Some (check sched))
       scheds ~init:(Ok 0)
       (fun acc r -> Result.bind acc (fun n -> Result.map (fun () -> n + 1) r)))

let adversarial_edge_name =
  "Lrwlock spin suite under adversarial schedules (livelock)"

let specs ~ctx ~lock ~seeds ~strategy ~adversarial =
  let memory = ctx.Ctx.memory in
  let lock_name, (module L : LOCK) = lock_impl lock in
  let suite st =
    match strategy with
    | None -> Fingerprint.string (Fingerprint.int st 1) (Printf.sprintf "seeds:%d" seeds)
    | Some s ->
      Fingerprint.string (Fingerprint.int st 2) (Ctx.Engine.to_string s)
  in
  (* With an explicit strategy, every game-driving edge derives its
     scheduler suite from the edge's own game (DPOR must walk the game it
     will replay); without one, the seeded default suite is used.  The
     strategy-carrying context shares this call's token and cache, so the
     walk stays under the same budget. *)
  let scheds_for layer threads =
    match strategy with
    | None -> Sched.default_suite ~seeds
    | Some s ->
      Explore.scheds_of_strategy_ctx ~ctx:(Ctx.with_strategy s ctx) layer
        threads
  in
  let cert_scheds_for (cert : Calculus.cert) client =
    let j = cert.Calculus.judgment in
    scheds_for j.Calculus.underlay
      (List.map
         (fun i -> i, Prog.Module.link j.Calculus.impl (client i))
         j.Calculus.focus)
  in
  let lock_threads () =
    let m = L.c_module () in
    [ 1, lock_client m 1; 2, lock_client m 2 ]
  in
  let faa_threads = [ 1, faa_round 1; 2, faa_round 2 ] in
  let queue_threads = [ 1, queue_client 1; 2, queue_client 2 ] in
  let mt_threads = [ 1, mt_prog 1; 2, mt_prog 2; 3, mt_prog 3 ] in
  let ipc_threads = [ 1, ipc_client 1; 2, ipc_client 2 ] in
  let mt_layer () = Thread_sched.mt_layer mt_placement (Lock_intf.layer "Llock") in
  let queue_fns =
    [ Ticket_lock.acq_fn; Ticket_lock.rel_fn; Queue_shared.enq_fn;
      Queue_shared.deq_fn ]
  in
  let ipc_fns =
    [ Ipc.send_fn; Ipc.recv_fn; Condvar.cv_wait_fn; Condvar.cv_signal_fn;
      Condvar.cv_broadcast_fn ]
  in
  let lock_key st =
    let st = fp_fns (Fingerprint.string st lock_name) [ L.acq_fn; L.rel_fn ] in
    Fingerprint.layer (Fingerprint.layer st (L.l0 ~memory ())) (L.overlay ())
  in
  let queue_key st =
    let st = Fingerprint.layer (fp_fns st queue_fns) (Ticket_lock.l0 ~memory ()) in
    Fingerprint.layer st (Queue_shared.overlay ())
  in
  let ipc_key st = Fingerprint.layer (fp_fns st ipc_fns) (Ipc.overlay ()) in
  (* The certificate of edges 4 and 5, built once: a cache hit on edge 4
     leaves edge 5 to build it, outside its timed window. *)
  let stack_cert =
    lazy
      (Result.map_error (Format.asprintf "%a" Calculus.pp_error)
         (Queue_shared.full_stack_certify ~memory ()))
  in
  let measured f () = timed f in
  [
    (* 1. multicore linking over the hardware machine of the mode *)
    {
      name = "Mx86 refines Lx86[D] (Thm 3.1)";
      kind = `Linking;
      key =
        Some
          (fun st ->
            suite
              (Fingerprint.threads
                 (Fingerprint.layer st (Ccal_machine.Tso.machine_layer memory))
                 faa_threads));
      run =
        measured (fun () ->
            let check sched =
              match memory with
              | Memory.Sc ->
                Ccal_machine.Mx86.check_multicore_linking_sched
                  ~threads:faa_threads sched
              | Memory.Tso ->
                Ccal_machine.Tso.check_multicore_linking_sched
                  ~threads:faa_threads sched
            in
            linking ~ctx check
              (scheds_for (Ccal_machine.Tso.machine_layer memory) faa_threads));
    };
    (* 2. spinlock certificate *)
    {
      name = Printf.sprintf "L0 |- M_%s : Llock (Fun)" lock_name;
      kind = `Cert Calculus.Fun;
      key = Some lock_key;
      run = measured (fun () -> let* c = cert (L.certify ~memory ~focus:[ 1; 2 ] ()) in checks c);
    };
    (* 3. parallel composition of per-thread lock certificates, over the
       compat corpus: logs from contention games *)
    {
      name = "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)";
      kind = `Cert Calculus.Pcomp;
      key = Some (fun st -> suite (Fingerprint.threads (lock_key st) (lock_threads ())));
      run =
        measured (fun () ->
            let* c1 = cert (L.certify ~memory ~focus:[ 1 ] ()) in
            let* c2 = cert (L.certify ~memory ~focus:[ 2 ] ()) in
            let layer = L.l0 ~memory () and threads = lock_threads () in
            let* outcomes =
              Option.map Result.ok
                (Check.finished
                   (Explore.run_all_ctx ~ctx layer threads
                      (scheds_for layer threads)))
            in
            let* p =
              cert
                (Calculus.pcomp c1 c2
                   ~compat_logs:(List.map (fun o -> o.Game.log) outcomes))
            in
            checks p);
    };
    (* 4. shared queue over the lock: vertical composition *)
    {
      name = "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)";
      kind = `Cert Calculus.Vcomp;
      key = Some queue_key;
      run = measured (fun () -> let* c = Some (Lazy.force stack_cert) in checks c);
    };
    (* 5. queue soundness game: its time and counters cover the game only *)
    {
      name = "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)";
      kind = `Soundness;
      key = Some (fun st -> suite (Fingerprint.threads (queue_key st) queue_threads));
      run =
        (fun () ->
          match Lazy.force stack_cert with
          | Error e -> (Some (Error e), 0., [])
          | Ok sc ->
            timed (fun () ->
                refined
                  (Linearizability.refine_cert_ctx ~ctx sc ~client:queue_client
                     ~scheds:(cert_scheds_for sc queue_client))));
    };
    (* 6. multithreaded linking over the scheduler *)
    {
      name = "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)";
      kind = `Linking;
      key =
        Some
          (fun st ->
            suite
              (Fingerprint.threads
                 (Fingerprint.layer (fp_placement st mt_placement) (mt_layer ()))
                 mt_threads));
      run =
        measured (fun () ->
            let layer = mt_layer () in
            linking ~ctx
              (Thread_sched.check_multithreaded_linking_sched
                 ~placement:mt_placement ~layer ~threads:mt_threads)
              (scheds_for layer mt_threads));
    };
    (* 7. queuing lock *)
    {
      name = "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)";
      kind = `Cert Calculus.Fun;
      key =
        Some
          (fun st ->
            Fingerprint.layer
              (fp_fns st [ Qlock.acq_q_fn; Qlock.rel_q_fn ])
              (Qlock.overlay ()));
      run = measured (fun () -> let* c = cert (Qlock.certify ()) in checks c);
    };
    (* 8. IPC channel over condition variables *)
    {
      name = "Lmt(spin+cv) |- M_ipc : Lipc (Fun)";
      kind = `Cert Calculus.Fun;
      key = Some ipc_key;
      run = measured (fun () -> let* c = cert (Ipc.certify ()) in checks c);
    };
    (* 9. IPC producer/consumer soundness including the blocking paths *)
    {
      name = "[[producer|consumer]] refines Lipc (blocking paths)";
      kind = `Soundness;
      key =
        Some
          (fun st ->
            suite (Fingerprint.threads (fp_placement (ipc_key st) ipc_placement) ipc_threads));
      run =
        measured (fun () ->
            let* c = cert (Ipc.certify ~placement:ipc_placement ~focus:[ 1; 2 ] ()) in
            refined
              (Linearizability.refine_cert_ctx ~ctx c ~client:ipc_client
                 ~scheds:(cert_scheds_for c ipc_client)));
    };
    (* 10. reader-writer lock: a synchronization library added on top of
       the existing lock layer without touching it *)
    {
      name = "Llock |- M_rwlock : Lrwlock (Fun, extension)";
      kind = `Cert Calculus.Fun;
      key =
        Some
          (fun st ->
            Fingerprint.layer
              (fp_fns st
                 [ Rwlock.acq_r_fn; Rwlock.rel_r_fn; Rwlock.acq_w_fn;
                   Rwlock.rel_w_fn ])
              (Rwlock.overlay ()));
      run = measured (fun () -> let* c = cert (Rwlock.certify ()) in checks c);
    };
  ]
  @
  if not adversarial then []
  else
    [
      (* 11 (opt-in). the spinning rwlock implementation under the
         trace-prefix suite: the spin retry loop phase-locks with
         [of_trace]'s round-robin degradation (the writer's turn always
         lands while a reader holds the underlay lock), so these games
         livelock to the fuel limit — the workload that demonstrates
         budgets turning a hang into an [Exhausted] report.  Stuckness
         and deadlock fail the edge; burning all fuel does not. *)
      {
        name = adversarial_edge_name;
        kind = `Adversarial;
        key = None;
        run =
          measured (fun () ->
              let layer = Rwlock.underlay () in
              let spin p = Prog.Module.link (Rwlock.c_module ()) p in
              let reader =
                spin (Prog.seq (Prog.call "acq_r" [ vi 4 ]) (Prog.call "rel_r" [ vi 4 ]))
              in
              let writer =
                spin (Prog.seq (Prog.call "acq_w" [ vi 4 ]) (Prog.call "rel_w" [ vi 4 ]))
              in
              let threads = [ 1, reader; 2, reader; 3, writer ] in
              let failed = function
                | Game.Stuck _ | Game.Deadlock _ -> true
                | Game.All_done | Game.Out_of_fuel | Game.Cancelled -> false
              in
              (* 3^5 schedules, each burning 200k moves of fuel: more
                 than any budget the gates set.  Only each game's status
                 and cost are kept — a fuel-bound log is megabytes, and
                 the scan may finish hundreds. *)
              Check.finished
                (Check.scan ~ctx ~cost:snd
                   ~cut:(fun (s, _) -> failed s)
                   (fun ~stop sched ->
                     Option.map
                       (fun o -> o.Game.status, o.Game.steps)
                       (Check.game
                          (Game.config ~max_steps:200_000 ?stop ~memory layer
                             threads sched)))
                   (Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:5)
                   ~init:(Ok 0)
                   (fun acc (s, _) ->
                     Result.bind acc (fun n ->
                         if failed s then
                           Error
                             (Format.asprintf "adversarial rwlock game failed: %a"
                                Game.pp_status s)
                         else Ok (n + 1)))));
      };
    ]

let edge_fingerprints ?(lock = `Ticket) ?(seeds = 4) ?strategy
    ?(memory = Memory.default) () =
  List.filter_map
    (fun s -> Option.map (fun k -> s.name, edge_key ~memory s.name k) s.key)
    (specs ~ctx:(Ctx.with_memory memory Ctx.default) ~lock ~seeds ~strategy
       ~adversarial:false)

let report_of edges =
  {
    edges;
    total_checks = List.fold_left (fun n e -> n + e.checks) 0 edges;
    total_millis = List.fold_left (fun t e -> t +. e.millis) 0. edges;
  }

let verify_all_ctx ~ctx ?(lock = `Ticket) ?(seeds = 4) ?strategy
    ?(adversarial = false) () =
  Ctx.arm ctx @@ fun () ->
  (* The cache probe and store sit outside the edge's [timed] window, so
     a cold run's per-edge counters are unaffected by caching and a warm
     hit reproduces the stored edge verbatim (timing aside: a hit's
     [millis] is the lookup time). *)
  let run_edge s =
    let live () =
      let r, millis, counters = s.run () in
      Option.map
        (Result.map (fun checks ->
             { edge_name = s.name; kind = s.kind; checks; millis; counters }))
        r
    in
    match s.key with
    | None -> live ()
    | Some fold ->
      Check.memo ctx.Ctx.cache edge_kind
        ~key:(lazy (edge_key ~memory:ctx.Ctx.memory s.name fold))
        ~keep:(function Some (Ok e) -> Some e | Some (Error _) | None -> None)
        ~hit:(fun e lookup_ms -> Some (Ok { e with millis = lookup_ms }))
        live
  in
  Budget.map
    (Result.map (fun (edges, next_edge) -> { completed = report_of edges; next_edge }))
    (Check.edges ~ctx
       ~name:(fun s -> s.name)
       run_edge
       (specs ~ctx ~lock ~seeds ~strategy ~adversarial))
