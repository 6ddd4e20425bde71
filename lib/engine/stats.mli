(** The exact percentile: the reference that [Trace.Hist]'s streaming
    estimate is tested against, and what Figure 7b and the boot-storm
    time-to-first-response rows print. Streaming and windowed
    percentiles use [Trace.Hist] instead. *)

(** [percentile p xs] with [p] in [0, 100], linear interpolation between
    order statistics. @raise Invalid_argument on empty input or bad [p]. *)
val percentile : float -> float list -> float
