open Ccal_core
module Engine = Strategy.Engine

type independence = Exact | Commuting_events

type stats = {
  schedules_considered : int;
  schedules_run : int;
  schedules_pruned : int;
  sleep_set_prunes : int;
  sym_prunes : int;
  distinct_logs : int;
}

type result = {
  prefixes : Event.tid list list;
  outcomes : Game.outcome list;
  stats : stats;
}

(* The independence footprint of an event: the object it touches and
   whether it only reads it.  By convention every shared primitive of the
   concrete objects takes the object identifier (lock, cell, location,
   channel…) as its first integer argument, and the primitives tagged
   [read_tags] only read it.  Events without an object (e.g. [switch])
   are [Global]: conservatively dependent on everything. *)
type footprint = Global | Obj of { id : int; read : bool }

let read_tags = [ "get_n"; "aload"; "read" ]

let footprint (e : Event.t) =
  match e.args with
  | Value.Vint id :: _ ->
    Obj { id; read = List.exists (String.equal e.tag) read_tags }
  | _ -> Global

(* Events of different threads commute iff their footprints do. *)
let independent (src1 : Event.tid) f1 (src2 : Event.tid) f2 =
  src1 <> src2
  &&
  match f1, f2 with
  | Obj a, Obj b -> a.id <> b.id || (a.read && b.read)
  | Global, _ | _, Global -> false

let independent_events (e1 : Event.t) (e2 : Event.t) =
  independent e1.src (footprint e1) e2.src (footprint e2)

(* Canonical representative of a Mazurkiewicz trace: repeatedly emit the
   [Event.compare]-least event with no earlier dependent event left, ties
   going to the earliest position.  Two logs are equivalent up to
   commuting independent events iff their canonical forms are equal.

   Kahn's algorithm on the dependence graph, with each event's footprint
   computed once: [waiting.(j)] counts the earlier dependent events of [j]
   not yet emitted, so [j] is ready at 0, and [later.(i)] lists the later
   dependent events that emitting [i] releases.  O(n²) footprint compares
   build the graph; each emission scans the n positions. *)
let canonical_log log =
  let evs = Array.of_list (Log.chronological log) in
  let n = Array.length evs in
  let src = Array.map (fun (e : Event.t) -> e.src) evs in
  let fp = Array.map footprint evs in
  let waiting = Array.make n 0 in
  let later = Array.make n [] in
  for j = n - 1 downto 1 do
    for i = 0 to j - 1 do
      if not (independent src.(i) fp.(i) src.(j) fp.(j)) then begin
        waiting.(j) <- waiting.(j) + 1;
        later.(i) <- j :: later.(i)
      end
    done
  done;
  let emitted = Array.make n false in
  let canon = ref Log.empty in
  for _ = 1 to n do
    let next = ref (-1) in
    for i = 0 to n - 1 do
      if
        (not emitted.(i))
        && waiting.(i) = 0
        && (!next < 0 || Event.compare evs.(i) evs.(!next) < 0)
      then next := i
    done;
    let i = !next in
    emitted.(i) <- true;
    List.iter (fun j -> waiting.(j) <- waiting.(j) - 1) later.(i);
    canon := Log.append evs.(i) !canon
  done;
  !canon

(* One enabled move of one thread, as classified by the DFS. *)
type move =
  | Fin  (** the thread runs to completion without emitting events *)
  | Step of Event.t list * Machine.thread_state
  | Halt  (** picking this thread ends the run stuck — a leaf *)

let independent_moves independence m1 m2 =
  match m1, m2 with
  | Fin, _ | _, Fin -> true
  | Halt, _ | _, Halt -> false
  | Step (es1, _), Step (es2, _) -> (
    match independence with
    | Exact -> false
    | Commuting_events ->
      List.for_all (fun e1 -> List.for_all (independent_events e1) es2) es1)

(* Saturating [b^n].  Deep bounds make [|threads|^depth] overflow native
   ints (e.g. 8 threads at depth 21); a wrapped count would silently
   report nonsense prune ratios, so the count pins at [max_int] and
   [pp_stats] renders that distinctly. *)
let sat_mul a b = if a > 0 && b > max_int / a then max_int else a * b
let pow b n =
  let rec go acc n = if n <= 0 then acc else go (sat_mul acc b) (n - 1) in
  go 1 n

module Iset = Set.Make (Int)

(* Every integer an event carries — its source tid, arguments and return
   value.  A tid in this set has leaked into the log as data, which ends
   its symmetry with the other fresh threads of its class. *)
let add_event_ints acc (e : Event.t) =
  let rec add acc (v : Value.t) =
    match v with
    | Value.Vint n -> Iset.add n acc
    | Value.Vpair (a, b) -> add (add acc a) b
    | Value.Vlist vs -> List.fold_left add acc vs
    | Value.Vunit | Value.Vbool _ -> acc
  in
  add (List.fold_left add (Iset.add e.src acc) e.args) e.ret

(* A DFS node.  Thread states are immutable, so this is a complete,
   self-contained description of a subtree root: a child's sleep set
   depends only on its parent's sleep set and its earlier siblings' moves,
   and its symmetry decisions only on its own path ([rev_prefix] and
   [ints]), all known before descending, which is what makes subtrees
   independent and the frontier-parallel walk below possible. *)
type node = {
  slots : (Event.tid * Machine.thread_state) list;
  log : Log.t;
  step : int;
  rev_prefix : Event.tid list;
  sleep : (Event.tid * move) list;
  ints : Iset.t;  (** integers seen in [log]; tracked only under [sym] *)
}

(* The frontier of a partially-expanded DFS, in pre-order: leaves already
   pinned interleave with unexpanded subtree roots. *)
type fringe_item = Leaf of Event.tid list | Subtree of node

(* Prune counters of one walk — what the suite cache stores alongside the
   surviving prefixes.  Each sequential DFS counts into its own tally. *)
type walk_stats = { mutable sleep_prunes : int; mutable sym_prunes : int }

let no_prunes () = { sleep_prunes = 0; sym_prunes = 0 }

(* Cache key of a walk: the engine descriptor plus the game identity and
   every knob that shapes the walk.  The walk has no failure mode (a
   stuck leaf is just a short prefix), so unlike verdicts its result is
   stored unconditionally; the replay phase always runs live.  The read
   tags of {!footprint} are hashed because they define the
   [Commuting_events] relation the walk's sleep sets follow. *)
let suite_key ?private_fuel ~engine ~independence ~memory ~depth layer threads =
  let st = Fingerprint.string Fingerprint.empty "engine-suite" in
  let st =
    Fingerprint.string st (Engine.to_string { engine with Engine.depth })
  in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st = Fingerprint.threads st threads in
  let st = Fingerprint.int st depth in
  let st =
    Fingerprint.int st (match independence with Exact -> 1 | Commuting_events -> 2)
  in
  let st = Fingerprint.list Fingerprint.string st read_tags in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st private_fuel)

(* Sleep-set DFS over the enabled moves of the whole-machine game, bounded
   to [depth] scheduling choices.  Each surviving branch records its
   choice prefix, later replayed through [Game.run] so leaf outcomes are
   bit-identical to the exhaustive oracle's.

   [sym] adds symmetry reduction across identical fresh threads.  Two
   real threads whose initial programs differ only in their own tid
   (equal {!Fingerprint.prog_blind} fingerprints) are interchangeable
   until either is scheduled or either tid leaks into the log as data; at
   any node where several such threads are enabled, fresh, and absent
   from the log's integers, only the first is explored.  A pruned move is
   covered up to the tid transposition, so it is counted in [sym_prunes]
   and kept out of its siblings' sleep sets; leaf logs are preserved only
   up to renaming, which is why [sym] is opt-in.

   With [jobs > 1] the root is expanded level-synchronously until the
   frontier holds enough subtrees to feed the pool; subtrees then run
   sequential DFS on separate domains and their results are concatenated
   in fringe order.  Pre-order is preserved at every stage, so the prefix
   list (and the prune counts, sums) is identical for every jobs count. *)
let walk_live ?private_fuel ~independence ~sym ?jobs ~memory ~depth layer
    threads =
  (* Pseudo-threads (TSO flushers, the crash thread of a crash-enabled
     layer) are part of the schedule space: the DFS explores their moves
     like any other thread's.  [Game.config] re-adds the same
     pseudo-threads internally, so the original [threads] go to replay
     untouched. *)
  let threads = threads @ Game.pseudo_threads ~memory layer threads in
  let classify slots log =
    List.filter_map
      (fun (i, st) ->
        match Machine.step_move ?private_fuel layer i st log with
        | Machine.Blocked_at _ -> None
        | Machine.Finished _ -> Some (i, Fin)
        | Machine.Moved (evs, st') -> Some (i, Step (evs, st'))
        | Machine.Stuck _ -> Some (i, Halt))
      slots
  in
  let apply slots log i = function
    | Step (evs, st') ->
      ( List.map (fun (j, st) -> if j = i then j, st' else j, st) slots,
        Log.append_all evs log )
    | Fin -> List.filter (fun (j, _) -> j <> i) slots, log
    | Halt -> slots, log
  in
  (* Symmetry classes of the real tids, computed once: freshness (tid
     never scheduled) means the thread still sits in its initial state. *)
  let sym_class =
    if not sym then fun _ -> None
    else
      let classes =
        List.filter_map
          (fun (i, p) ->
            if i < 0 then None
            else
              Some
                ( i,
                  Fingerprint.finish
                    (Fingerprint.prog_blind ~tid:i Fingerprint.empty p) ))
          threads
      in
      fun i -> List.assoc_opt i classes
  in
  (* [reps] holds the classes already represented among this node's
     earlier enabled moves. *)
  let sym_pruned reps n i m =
    match m, sym_class i with
    | Halt, _ | _, None -> false
    | (Fin | Step _), Some c ->
      (not (List.mem i n.rev_prefix))
      && (not (Iset.mem i n.ints))
      && (List.exists (Fingerprint.equal c) !reps
         || begin
           reps := c :: !reps;
           false
         end)
  in
  (* One level of expansion: the node's children (and immediate leaves) in
     sibling order; the prunes taken at this node go to [tally]. *)
  let expand tally n =
    if n.step >= depth || n.slots = [] then [ Leaf (List.rev n.rev_prefix) ]
    else
      match classify n.slots n.log with
      | [] -> [ Leaf (List.rev n.rev_prefix) ] (* deadlock: all blocked *)
      | enabled ->
        let reps = ref [] in
        let explored = ref [] in
        let items = ref [] in
        List.iter
          (fun (i, m) ->
            if List.exists (fun (j, _) -> j = i) n.sleep then
              tally.sleep_prunes <- tally.sleep_prunes + 1
            else if sym && sym_pruned reps n i m then
              tally.sym_prunes <- tally.sym_prunes + 1
            else (
              (match m with
              | Halt -> items := Leaf (List.rev (i :: n.rev_prefix)) :: !items
              | Fin | Step _ ->
                let sleep' =
                  List.filter
                    (fun (_, m') -> independent_moves independence m' m)
                    (n.sleep @ List.rev !explored)
                in
                let slots', log' = apply n.slots n.log i m in
                let ints' =
                  match m with
                  | Step (evs, _) when sym ->
                    List.fold_left add_event_ints n.ints evs
                  | _ -> n.ints
                in
                items :=
                  Subtree
                    {
                      slots = slots';
                      log = log';
                      step = n.step + 1;
                      rev_prefix = i :: n.rev_prefix;
                      sleep = sleep';
                      ints = ints';
                    }
                  :: !items);
              explored := (i, m) :: !explored))
          enabled;
        List.rev !items
  in
  (* Sequential DFS of a whole subtree, expressed through [expand] so the
     sequential and split walks run literally the same transition code. *)
  let dfs_from root =
    let recorded = ref [] in
    let tally = no_prunes () in
    let rec go n =
      List.iter
        (function
          | Leaf prefix -> recorded := prefix :: !recorded
          | Subtree n' -> go n')
        (expand tally n)
    in
    (* a DFS classifies every thread at one log and then descends along
       extensions of it: one memo for the walk serves both *)
    Replay.with_memo (fun () -> go root);
    List.rev !recorded, tally
  in
  let root =
    {
      slots = List.map (fun (i, p) -> i, Machine.initial layer i p) threads;
      log = Log.empty;
      step = 0;
      rev_prefix = [];
      sleep = [];
      ints = Iset.empty;
    }
  in
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  if jobs <= 1 then dfs_from root
  else begin
    (* Grow the frontier breadth-first until it can feed the pool.  Each
       round replaces every subtree root by its expansion, in place, so
       fringe order stays pre-order.

       The split depth is calibrated, not fixed: each round descends one
       level, and growth stops at the shallowest depth whose frontier
       holds [jobs * 8] subtrees — enough outstanding subtrees that an
       uneven one (sleep sets prune subtrees very unevenly) can be
       absorbed by work stealing, while keeping each subtree a full
       domain-local DFS: sleep sets never cross a domain boundary, and
       no two domains ever touch the same prefix. *)
    let target = jobs * 8 in
    let count_subtrees fringe =
      List.length
        (List.filter (function Subtree _ -> true | Leaf _ -> false) fringe)
    in
    let tally = no_prunes () in
    let rec grow fringe rounds =
      let subtrees = count_subtrees fringe in
      if subtrees = 0 || subtrees >= target || rounds <= 0 then fringe
      else
        grow
          (List.concat_map
             (function Leaf _ as l -> [ l ] | Subtree n -> expand tally n)
             fringe)
          (rounds - 1)
    in
    let fringe = grow [ Subtree root ] (depth + 1) in
    let parts =
      Parallel.map ~jobs
        (function Leaf p -> [ p ], no_prunes () | Subtree n -> dfs_from n)
        fringe
    in
    List.iter
      (fun (_, p) ->
        tally.sleep_prunes <- tally.sleep_prunes + p.sleep_prunes;
        tally.sym_prunes <- tally.sym_prunes + p.sym_prunes)
      parts;
    List.concat_map fst parts, tally
  end

(* [walk] is the only reader and writer of the ["engine.2"] entries: the
   surviving prefixes and the prune counters of the walk. *)
let engine_kind : (Event.tid list list * walk_stats) Cache.kind =
  Cache.kind "engine.2"

let walk ?private_fuel ~independence ?jobs ?cache ~memory ~engine ~depth layer
    threads =
  if engine.Engine.algo <> Engine.Dpor then
    invalid_arg ("Dpor.walk: not a DPOR engine: " ^ Engine.to_string engine);
  Check.memo cache engine_kind
    ~key:
      (lazy
        (suite_key ?private_fuel ~engine ~independence ~memory ~depth layer
           threads))
    ~keep:Option.some
    ~hit:(fun walked _ -> walked)
  @@ fun () ->
  walk_live ?private_fuel ~independence ~sym:engine.Engine.sym ?jobs ~memory
    ~depth layer threads

(* Content-bearing names, not the default "trace": the certificate cache
   identifies a scheduler suite by its names, so two suites of different
   prefixes must not alias. *)
let sched_of_prefix ~tag prefix =
  Sched.of_trace
    ~name:
      (Printf.sprintf "%s:[%s]" tag
         (String.concat "," (List.map string_of_int prefix)))
    prefix

let pp_count fmt n =
  if n = max_int then Format.pp_print_string fmt ">max-int"
  else Format.pp_print_int fmt n

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<h>schedules: %d run / %a considered (%a pruned, %d sleep-set skips%t); %d distinct logs@]"
    s.schedules_run pp_count s.schedules_considered pp_count
    s.schedules_pruned s.sleep_set_prunes
    (fun fmt ->
      if s.sym_prunes > 0 then
        Format.fprintf fmt ", %d symmetry prunes" s.sym_prunes)
    s.distinct_logs

(* ------------------------------------------------------------------ *)
(* unified-context entry points (DESIGN.md S27)                        *)
(* ------------------------------------------------------------------ *)

(* The DFS walk itself stays un-budgeted: it is depth-bounded and cheap
   relative to replay, and keeping it whole means an [Exhausted] explore
   still reports the complete schedule frontier — exactly what a resumed
   run needs.  Only the replay phase, which runs full games, charges the
   step budget. *)

(* The engine a context implies for the walk: the context's strategy
   when it is [Dpor], otherwise the default engine (a checker driving an
   exhaustive or random context never reaches the walk). *)
let engine_of_ctx ctx =
  match (ctx.Ctx.strategy : Engine.t).algo with
  | Engine.Dpor -> ctx.Ctx.strategy
  | Engine.Exhaustive | Engine.Random -> Engine.default

let walk_ctx ~ctx ?private_fuel ~independence ?engine ~depth layer threads =
  let engine = match engine with Some e -> e | None -> engine_of_ctx ctx in
  walk ?private_fuel ~independence ?jobs:(Ctx.jobs_opt ctx) ?cache:ctx.Ctx.cache
    ~memory:ctx.Ctx.memory ~engine ~depth layer threads

let prefixes_ctx ~ctx ?private_fuel ?(independence = Exact) ?engine ~depth
    layer threads =
  fst (walk_ctx ~ctx ?private_fuel ~independence ?engine ~depth layer threads)

let explore_ctx ~ctx ?max_steps ?private_fuel ?(independence = Exact) ?engine
    ~depth layer threads =
  Ctx.arm ctx @@ fun () ->
  let prefixes, walk_stats =
    Probe.span "dpor.prefixes" (fun () ->
        walk_ctx ~ctx ?private_fuel ~independence ?engine ~depth layer threads)
  in
  Budget.map
    (fun rev_outcomes ->
      let outcomes = List.rev rev_outcomes in
      let logs = List.map (fun o -> o.Game.log) outcomes in
      let representative =
        match independence with
        | Exact -> logs
        | Commuting_events ->
          Probe.span "dpor.canonical" (fun () -> List.map canonical_log logs)
      in
      let schedules_considered = pow (List.length threads) depth in
      let distinct_logs =
        Probe.span "dpor.dedup" (fun () ->
            List.length (Log.dedup representative))
      in
      Probe.add Probe.sleep_set_prunes walk_stats.sleep_prunes;
      Probe.add Probe.logs_distinct distinct_logs;
      {
        prefixes;
        outcomes;
        stats =
          {
            schedules_considered;
            schedules_run = List.length outcomes;
            schedules_pruned =
              max 0 (schedules_considered - List.length prefixes);
            sleep_set_prunes = walk_stats.sleep_prunes;
            sym_prunes = walk_stats.sym_prunes;
            distinct_logs;
          };
      })
    (Probe.span "dpor.replay" (fun () ->
         Check.scan ~ctx
           ~cost:(fun o -> o.Game.steps)
           (fun ~stop p ->
             Check.game
               (Game.config ?max_steps ?stop ~memory:ctx.Ctx.memory layer
                  threads (sched_of_prefix ~tag:"dpor" p)))
           prefixes ~init:[]
           (fun acc o -> o :: acc)))
