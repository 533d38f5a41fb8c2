(* The checker kernel (DESIGN.md S33): the budgeted scan, the
   success-only memo and the edge loop that every checker used to copy. *)

open Ccal_core

let scan ~ctx ~cost ?(cut = fun _ -> false) body xs ~init fold =
  let r =
    Parallel.budgeted_scan ?jobs:(Ctx.jobs_opt ctx) ~token:ctx.Ctx.token ~cost
      ~cut body xs
  in
  let acc = List.fold_left fold init r.Parallel.prefix in
  if r.Parallel.ran_out then
    Budget.Exhausted { spent = Budget.spent ctx.Ctx.token; partial = acc }
  else Budget.Complete acc

let game cfg =
  let o = Game.replay cfg in
  if o.Game.status = Game.Cancelled then None else Some o

let memo cache kind ~key ?(valid = fun _ -> true) ~keep ~hit run =
  match cache with
  | None -> run ()
  | Some c -> (
    let key = Lazy.force key in
    let found, lookup_ms = Verify_clock.timed (fun () -> Cache.find c kind key) in
    match found with
    | Some v when valid v -> hit v lookup_ms
    | found ->
      (* a bad entry goes before the recomputation, so a failing run
         leaves no stale entry behind *)
      if Option.is_some found then Cache.invalidate c kind key;
      let r = run () in
      Option.iter (Cache.store c kind key) (keep r);
      r)

let finished = function
  | Budget.Complete v -> Some v
  | Budget.Exhausted _ -> None

let edges ~ctx ~name run specs =
  let stop_at acc s =
    Budget.Exhausted
      {
        spent = Budget.spent ctx.Ctx.token;
        partial = Ok (List.rev acc, Some (name s));
      }
  in
  let rec go acc = function
    | [] -> Budget.Complete (Ok (List.rev acc, None))
    | s :: rest -> (
      if Budget.poll ctx.Ctx.token then stop_at acc s
      else
        match run s with
        | Some (Ok e) -> go (e :: acc) rest
        | Some (Error f) -> Budget.Complete (Error f)
        | None -> stop_at acc s)
  in
  go [] specs
