exception Canceled
exception Timeout

type 'a outcome = ('a, exn) result

(* Waiter and hook lists are kept newest first and run oldest first. *)
type 'a record = {
  mutable state : 'a inner;
  mutable cancel_hooks : (unit -> unit) list;
}

and 'a inner =
  | Pending of ('a outcome -> unit) list
  | Settled of 'a outcome
  | Proxy of 'a record  (* merged into that promise by [merge] *)

type 'a t = 'a record
type 'a u = 'a record

let created = ref 0
let resolved = ref 0
let created_count () = !created
let resolved_count () = !resolved

let reset_counters () =
  created := 0;
  resolved := 0

(* The promise a chain of proxies ends at, pointing every link of the chain
   straight at it. *)
let rec repr t =
  match t.state with
  | Pending _ | Settled _ -> t
  | Proxy t' ->
    let r = repr t' in
    if r != t' then t.state <- Proxy r;
    r

let is_pending t = match (repr t).state with Pending _ -> true | Settled _ | Proxy _ -> false

let make_pending () =
  incr created;
  { state = Pending []; cancel_hooks = [] }

let make_settled outcome =
  incr created;
  incr resolved;
  { state = Settled outcome; cancel_hooks = [] }

let return v = make_settled (Ok v)
let fail e = make_settled (Error e)

let settle t outcome =
  let t = repr t in
  match t.state with
  | Settled _ | Proxy _ -> invalid_arg "Promise: already settled"
  | Pending callbacks ->
    t.state <- Settled outcome;
    t.cancel_hooks <- [];
    incr resolved;
    List.iter (fun cb -> cb outcome) (List.rev callbacks)

let settle_if_pending t outcome = if is_pending t then settle t outcome

let wait () =
  let p = make_pending () in
  (p, p)

let wakeup u v = match (repr u).state with Settled (Error Canceled) -> () | _ -> settle u (Ok v)

let wakeup_exn u e =
  match (repr u).state with Settled (Error Canceled) -> () | _ -> settle u (Error e)

let wakener_pending (u : 'a u) = is_pending u

let state t =
  match (repr t).state with
  | Pending _ | Proxy _ -> `Pending
  | Settled (Ok v) -> `Resolved v
  | Settled (Error e) -> `Failed e

let on_resolve t f =
  let t = repr t in
  match t.state with
  | Settled outcome -> f outcome
  | Pending callbacks -> t.state <- Pending (f :: callbacks)
  | Proxy _ -> assert false

let on_cancel t f =
  let t = repr t in
  match t.state with Settled _ | Proxy _ -> () | Pending _ -> t.cancel_hooks <- f :: t.cancel_hooks

(* [h] is [r]'s hook cancelling the upstream promise [r] waits on; once
   that promise settles the hook is a no-op, so drop it rather than let a
   loop's hooks pile up. *)
let forget_hook r h =
  let r = repr r in
  r.cancel_hooks <- List.filter (fun h' -> h' != h) r.cancel_hooks

let cancel t =
  let t = repr t in
  match t.state with
  | Settled _ | Proxy _ -> ()
  | Pending _ ->
    let hooks = t.cancel_hooks in
    t.cancel_hooks <- [];
    List.iter (fun h -> h ()) (List.rev hooks);
    (* A hook may itself have settled the promise (e.g. by cancelling an
       upstream promise we were waiting on). *)
    settle_if_pending t (Error Canceled)

(* [merge r inner] makes pending [r] settle as [inner] does. A pending
   [inner] becomes a proxy of [r] instead of gaining a forwarding callback:
   [inner]'s waiters run first, then [r]'s, as a forwarder at the end of
   [inner]'s list would have run them; [r]'s cancel hooks run first, then
   [inner]'s, as a [cancel inner] hook at the end of [r]'s would have. [r]
   stays the root, so a recursive loop keeps one live promise however many
   times it goes round. *)
let merge r inner =
  let r = repr r and inner = repr inner in
  match (r.state, inner.state) with
  | Pending callbacks, Pending inner_callbacks when r != inner ->
    r.state <- Pending (callbacks @ inner_callbacks);
    r.cancel_hooks <- inner.cancel_hooks @ r.cancel_hooks;
    inner.state <- Proxy r;
    inner.cancel_hooks <- []
  | Pending _, Settled o -> settle r o
  | _ -> ()

let async_exception_hook = ref (fun e -> raise e)
let set_async_exception_hook f = async_exception_hook := f

let run_thunk f = try Ok (f ()) with e -> Error e

let bind t f =
  let t = repr t in
  match t.state with
  | Settled (Ok v) -> ( match run_thunk (fun () -> f v) with Ok p -> p | Error e -> fail e)
  | Settled (Error e) -> fail e
  | Proxy _ -> assert false
  | Pending _ ->
    let r = make_pending () in
    let upstream () = cancel t in
    on_cancel r upstream;
    on_resolve t (fun outcome ->
        forget_hook r upstream;
        match outcome with
        | Error e -> settle_if_pending r (Error e)
        | Ok v -> (
          if is_pending r then
            match run_thunk (fun () -> f v) with
            | Error e -> settle r (Error e)
            | Ok inner -> merge r inner));
    r

let map f t = bind t (fun v -> match run_thunk (fun () -> f v) with Ok r -> return r | Error e -> fail e)

module Infix = struct
  let ( >>= ) = bind
  let ( >|= ) t f = map f t
end

let catch f handler =
  let t = repr (match run_thunk f with Ok p -> p | Error e -> fail e) in
  match t.state with
  | Settled (Ok _) -> t
  | Settled (Error e) -> ( match run_thunk (fun () -> handler e) with Ok p -> p | Error e' -> fail e')
  | Proxy _ -> assert false
  | Pending _ ->
    let r = make_pending () in
    let upstream () = cancel t in
    on_cancel r upstream;
    on_resolve t (fun outcome ->
        forget_hook r upstream;
        if is_pending r then
          match outcome with
          | Ok v -> settle r (Ok v)
          | Error e -> (
            match run_thunk (fun () -> handler e) with
            | Error e' -> settle r (Error e')
            | Ok inner -> merge r inner));
    r

let try_bind f on_ok on_err =
  let t = match run_thunk f with Ok p -> p | Error e -> fail e in
  bind (catch (fun () -> map (fun v -> Ok v) t) (fun e -> return (Error e))) (function
    | Ok v -> on_ok v
    | Error e -> on_err e)

let finalize f cleanup =
  try_bind f
    (fun v -> bind (cleanup ()) (fun () -> return v))
    (fun e -> bind (cleanup ()) (fun () -> fail e))

let async f =
  let t = match run_thunk f with Ok p -> p | Error e -> fail e in
  on_resolve t (function Ok () -> () | Error Canceled -> () | Error e -> !async_exception_hook e)

let choose ts =
  match List.find_opt (fun t -> not (is_pending t)) ts with
  | Some t -> t
  | None ->
    let r = make_pending () in
    List.iter (fun t -> on_resolve t (settle_if_pending r)) ts;
    r

let pick ts =
  let r = choose ts in
  let cancel_losers () = List.iter (fun t -> if t != r then cancel t) ts in
  if is_pending r then begin
    on_resolve r (fun _ -> List.iter cancel ts);
    on_cancel r (fun () -> List.iter cancel ts)
  end
  else cancel_losers ();
  r

let join ts =
  let remaining = ref 0 in
  let failure = ref None in
  let r = make_pending () in
  let finish () =
    settle_if_pending r (match !failure with None -> Ok () | Some e -> Error e)
  in
  List.iter
    (fun t ->
      incr remaining;
      on_resolve t (fun o ->
          (match o with
          | Ok () -> ()
          | Error e -> if !failure = None then failure := Some e);
          decr remaining;
          if !remaining = 0 then finish ()))
    ts;
  if !remaining = 0 then finish ();
  on_cancel r (fun () -> List.iter cancel ts);
  r

let all ts =
  let arr = Array.of_list ts in
  let n = Array.length arr in
  let results = Array.make n None in
  let unit_threads =
    Array.to_list
      (Array.mapi
         (fun i t ->
           bind t (fun v ->
               results.(i) <- Some v;
               return ()))
         arr)
  in
  bind (join unit_threads) (fun () ->
      return
        (Array.to_list
           (Array.map (function Some v -> v | None -> assert false) results)))

let both a b =
  bind (all [ map (fun v -> `A v) a; map (fun v -> `B v) b ]) (function
    | [ `A va; `B vb ] -> return (va, vb)
    | _ -> assert false)

let sleep sim ns =
  let p = make_pending () in
  let handle =
    Engine.Sim.schedule sim ~delay:ns (fun () -> settle_if_pending p (Ok ()))
  in
  on_cancel p (fun () -> Engine.Sim.cancel handle);
  p

let yield sim = sleep sim 0

let with_timeout sim ns f =
  let timer = bind (sleep sim ns) (fun () -> fail Timeout) in
  pick [ timer; (match run_thunk f with Ok p -> p | Error e -> fail e) ]

let run sim t =
  let rec drive () =
    match (repr t).state with
    | Settled (Ok v) -> v
    | Settled (Error e) -> raise e
    | Pending _ | Proxy _ ->
      if Engine.Sim.step sim then drive ()
      else failwith "Promise.run: deadlock - event queue drained with thread pending"
  in
  drive ()
