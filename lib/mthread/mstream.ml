type 'a t = {
  buffered : 'a Queue.t;
  waiters : ('a option Promise.u) Queue.t;
  mutable closed : bool;
}

let create () = { buffered = Queue.create (); waiters = Queue.create (); closed = false }

let rec next_live_waiter t =
  match Queue.take_opt t.waiters with
  | None -> None
  | Some u -> if Promise.wakener_pending u then Some u else next_live_waiter t

let push t v =
  if t.closed then invalid_arg "Mstream.push: closed stream";
  match next_live_waiter t with
  | Some u -> Promise.wakeup u (Some v)
  | None -> Queue.add v t.buffered

let close t =
  if not t.closed then begin
    t.closed <- true;
    let rec flush () =
      match next_live_waiter t with
      | Some u ->
        Promise.wakeup u None;
        flush ()
      | None -> ()
    in
    flush ()
  end

let next t =
  match Queue.take_opt t.buffered with
  | Some v -> Promise.return (Some v)
  | None ->
    if t.closed then Promise.return None
    else begin
      let p, u = Promise.wait () in
      Queue.add u t.waiters;
      p
    end

let map_buffered f t =
  let mapped = Queue.create () in
  Queue.iter (fun v -> Queue.add (f v) mapped) t.buffered;
  Queue.clear t.buffered;
  Queue.transfer mapped t.buffered
