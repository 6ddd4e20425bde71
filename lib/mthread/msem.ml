type t = { mutable permits : int; waiters : unit Promise.u Queue.t }

let create n =
  if n < 0 then invalid_arg "Msem.create: negative count";
  { permits = n; waiters = Queue.create () }

let acquire t =
  if t.permits > 0 then begin
    t.permits <- t.permits - 1;
    Promise.return ()
  end
  else begin
    let p, u = Promise.wait () in
    Queue.add u t.waiters;
    p
  end

let rec release t =
  match Queue.take_opt t.waiters with
  | Some u ->
    if Promise.wakener_pending u then Promise.wakeup u ()
    else release t (* waiter was cancelled; hand the permit onward *)
  | None -> t.permits <- t.permits + 1

let with_permit t f =
  Promise.bind (acquire t) (fun () ->
      Promise.finalize f (fun () ->
          release t;
          Promise.return ()))
