type t = {
  mutable hypercalls : int;
  mutable evtchn_notifies : int;
  mutable grant_maps : int;
  mutable grant_copies : int;
  mutable domain_builds : int;
  mutable seals : int;
  mutable page_table_writes : int;
}

let create () =
  {
    hypercalls = 0;
    evtchn_notifies = 0;
    grant_maps = 0;
    grant_copies = 0;
    domain_builds = 0;
    seals = 0;
    page_table_writes = 0;
  }

let reset t =
  t.hypercalls <- 0;
  t.evtchn_notifies <- 0;
  t.grant_maps <- 0;
  t.grant_copies <- 0;
  t.domain_builds <- 0;
  t.seals <- 0;
  t.page_table_writes <- 0
