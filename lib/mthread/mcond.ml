type 'a t = { waiters : 'a Promise.u Queue.t }

let create () = { waiters = Queue.create () }

let wait t =
  let p, u = Promise.wait () in
  Queue.add u t.waiters;
  p

let broadcast t v =
  let all = Queue.to_seq t.waiters |> List.of_seq in
  Queue.clear t.waiters;
  List.iter (fun u -> if Promise.wakener_pending u then Promise.wakeup u v) all
