type 'a t = Log.t -> ('a, string) result

(* ------------------------------------------------------------------ *)
(* the replay memo (DESIGN.md S32)                                    *)
(* ------------------------------------------------------------------ *)

(* What one fold has already replayed in the running game: the spine of
   the log it last saw, that log's length, and the state it folded to. *)
type 'a cell = {
  mutable spine : Event.t list;
  mutable len : int;
  mutable state : ('a, string) result;
}

type entry = Entry : 'a Type.Id.t * 'a cell -> entry

(* [Outside]: no game is running on this domain, every call refolds.
   [Scratch]: games run inside {!from_scratch}, which never memoize.
   [Game]: the running game's memo, one cell per fold it has called. *)
type slot =
  | Outside
  | Scratch
  | Game of entry list ref

let slot : slot Domain.DLS.key = Domain.DLS.new_key (fun () -> Outside)

let scoped s f =
  let prev = Domain.DLS.get slot in
  Domain.DLS.set slot s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

let with_memo f =
  match Domain.DLS.get slot with
  | Scratch -> f ()
  | Outside | Game _ -> scoped (Game (ref [])) f

let from_scratch f = scoped Scratch f

(* [key]'s cell in [memo], added (at [start], before any event) on the
   first call *)
let rec cell_of :
    type a. a Type.Id.t -> (a, string) result -> entry list ref -> entry list -> a cell =
 fun key start memo -> function
  | [] ->
    let c = { spine = []; len = 0; state = start } in
    memo := Entry (key, c) :: !memo;
    c
  | Entry (k, c) :: rest -> (
    match Type.Id.provably_equal key k with
    | Some Type.Equal -> c
    | None -> cell_of key start memo rest)

(* Fold the [k] newest events of [evs] onto [base], oldest first: recurse
   down the newest-first spine, then step while unwinding, so the first
   failing event in chronological order reports and no reversed list is
   built. *)
let rec fold_newest step base k evs =
  if k = 0 then base
  else
    match evs with
    | [] -> base
    | e :: older -> (
      match fold_newest step base (k - 1) older with
      | Ok acc -> step acc e
      | Error _ as err -> err)

let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r

let fold ~init ~step : 'a t =
  let key = Type.Id.make () and start = Ok init in
  fun l ->
    let len = Log.length l and spine = Log.newest_first l in
    match Domain.DLS.get slot with
    | Outside | Scratch -> fold_newest step start len spine
    | Game memo ->
      let cell = cell_of key start memo !memo in
      (* [l] extends the memoized log iff dropping its new events leaves
         the very spine the memo folded; otherwise refold from [init] *)
      let state =
        if len >= cell.len && drop (len - cell.len) spine == cell.spine then
          fold_newest step cell.state (len - cell.len) spine
        else fold_newest step start len spine
      in
      cell.spine <- spine;
      cell.len <- len;
      cell.state <- state;
      state

module Imap = Map.Make (Int)

let per_object ~obj ~init ~step =
  let all =
    fold ~init:Imap.empty ~step:(fun m e ->
        match obj e with
        | None -> Ok m
        | Some b -> (
          match Imap.find_opt b m with
          | Some (Error _) -> Ok m
          | found -> (
            let st = match found with Some (Ok st) -> st | _ -> init in
            match step b st e with
            | Ok st' when st' == st -> Ok m
            | r -> Ok (Imap.add b r m))))
  in
  fun b l ->
    match all l with
    | Error _ as e -> e
    | Ok m -> ( match Imap.find_opt b m with Some r -> r | None -> Ok init)

let pure x : 'a t = fun _ -> Ok x

let map f r : 'b t = fun l -> Result.map f (r l)

let both ra rb : ('a * 'b) t =
 fun l ->
  match ra l with
  | Error _ as e -> e
  | Ok a -> (
    match rb l with
    | Error _ as e -> e
    | Ok b -> Ok (a, b))

let run_exn r l =
  match r l with
  | Ok x -> x
  | Error msg -> failwith ("Replay.run_exn: stuck: " ^ msg)

let well_formed r l = match r l with Ok _ -> true | Error _ -> false
