type t = {
  name : string;
  pick : step:int -> Log.t -> runnable:Event.tid list -> Event.tid option;
}

(* SplitMix-style avalanche with constants in OCaml's 63-bit int range. *)
let splitmix x =
  let x = (x * 0x2545F491) + 0x9E3779B9 in
  let x = (x lxor (x lsr 16)) * 0x45D9F3B in
  let x = (x lxor (x lsr 13)) * 0xC2B2AE35 in
  (* [abs min_int] is still negative: mask the sign bit away so the result
     is non-negative for every input, including [min_int]. *)
  abs (x lxor (x lsr 16)) land max_int

let rec count_below (x : int) n = function
  | [] -> n
  | y :: rest -> count_below x (if y < x then n + 1 else n) rest

(* The element of [all] with exactly [r] smaller elements: the [r]-th
   smallest of a duplicate-free list, found without sorting (the
   scheduler runs once per attempted move, and a sorted copy per pick was
   most of a game's allocation). *)
let rec nth_smallest r all = function
  | [] -> None
  | x :: rest -> if count_below x 0 all = r then Some x else nth_smallest r all rest

let round_robin =
  {
    name = "round-robin";
    pick =
      (fun ~step _ ~runnable ->
        match runnable with
        | [] -> None
        | _ -> nth_smallest (step mod List.length runnable) runnable runnable);
  }

let random ~seed =
  {
    name = Printf.sprintf "random(seed=%d)" seed;
    pick =
      (fun ~step _ ~runnable ->
        match runnable with
        | [] -> None
        | _ ->
          let n = List.length runnable in
          Some (List.nth runnable (splitmix ((seed * 1_000_003) + step) mod n)));
  }

let of_trace ?(name = "trace") trace =
  let remaining = ref trace in
  {
    name;
    pick =
      (fun ~step log ~runnable ->
        let rec next () =
          match !remaining with
          | [] -> round_robin.pick ~step log ~runnable
          | i :: rest ->
            remaining := rest;
            if List.mem i runnable then Some i else next ()
        in
        next ());
  }

let biased ~favored ~ratio ~seed =
  {
    name = Printf.sprintf "biased(%d x%d)" favored ratio;
    pick =
      (fun ~step _ ~runnable ->
        match runnable with
        | [] -> None
        | _ ->
          let h = splitmix ((seed * 7_919) + step) in
          if List.mem favored runnable && h mod (ratio + 1) <> 0 then Some favored
          else
            let n = List.length runnable in
            Some (List.nth runnable (h / 7 mod n)));
  }

let default_suite ~seeds =
  round_robin :: List.init seeds (fun k -> random ~seed:(k + 1))
