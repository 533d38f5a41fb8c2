open Ccal_core

let faa_tag = "faa"
let xchg_tag = "xchg"
let cas_tag = "cas"
let aload_tag = "aload"
let astore_tag = "astore"
let mfence_tag = "mfence"

(* Every cell's value, routed by the cell argument; events on other cells
   cannot change cell [b]. *)
let replay_cell : int -> int Replay.t =
  Replay.per_object
    ~obj:(fun (e : Event.t) ->
      match e.args with Value.Vint b :: _ -> Some b | _ -> None)
    ~init:0
    ~step:(fun _ v (e : Event.t) ->
      match e.tag, e.args with
      | tag, [ _; Value.Vint d ] when String.equal tag faa_tag -> Ok (v + d)
      | tag, [ _; Value.Vint x ] when String.equal tag xchg_tag -> Ok x
      | tag, [ _; Value.Vint expected; Value.Vint x ]
        when String.equal tag cas_tag ->
        if v = expected then Ok x else Ok v
      | tag, [ _; Value.Vint x ] when String.equal tag astore_tag -> Ok x
      | _ -> Ok v)

(* An atomic operation computes its return value from the replayed state of
   the log it extends. *)
let atomic_prim tag arity ret_of =
  ( tag,
    Layer.Shared
      (fun c args log ->
        if List.length args <> arity then
          Layer.Stuck (Printf.sprintf "%s: expected %d arguments" tag arity)
        else
          match args with
          | Value.Vint b :: _ -> (
            match replay_cell b log with
            | Error msg -> Layer.Stuck msg
            | Ok old ->
              let ret = ret_of old in
              let ev = Event.make ~args ~ret c tag in
              Layer.Step { events = [ ev ]; ret; crit = Layer.Keep })
          | _ -> Layer.Stuck (tag ^ ": expected a cell location")) )

let faa = atomic_prim faa_tag 2 Value.int
let xchg = atomic_prim xchg_tag 2 Value.int
let cas = atomic_prim cas_tag 3 Value.int
let aload = atomic_prim aload_tag 1 Value.int
let astore = atomic_prim astore_tag 2 (fun _ -> Value.unit)

(* On the SC machine every store is already globally visible, so the
   fence only marks the log.  It exists here so fenced programs (the
   litmus suite's [_fenced] variants) run unchanged under both memory
   modes; {!Tso} gives the same tag its draining semantics. *)
let mfence =
  ( mfence_tag,
    Layer.Shared
      (fun c _args _log ->
        Layer.Step
          { events = [ Event.make c mfence_tag ]; ret = Value.unit; crit = Layer.Keep }) )

let prims = [ faa; xchg; cas; aload; astore; mfence ]
