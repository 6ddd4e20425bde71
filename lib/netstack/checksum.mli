(** The Internet checksum (RFC 1071): one's-complement sum of 16-bit words.
    Hardware offload is disabled throughout the evaluation (paper §4.1.3),
    so every IP/ICMP/UDP/TCP packet is summed in software here.

    A checksum over several buffers threads a running sum through {!add},
    starting from [0] (or from {!pseudo} for TCP and UDP) and ending with
    {!finish}. The running sum is an immediate [int], so no step
    allocates. The buffers are summed as one contiguous byte stream: a
    buffer that starts at an odd stream offset contributes its folded sum
    byte-swapped, which is exactly what pairing its bytes across the
    boundary would give. The kernel is {!Bytestruct.sum16_ne}, eight bytes
    per step. *)

(** Running sum of the IPv4 pseudo-header for a TCP or UDP checksum: source,
    destination, zero, [proto], and the 16-bit transport length [len]. *)
val pseudo : src:Ipaddr.t -> dst:Ipaddr.t -> proto:int -> len:int -> int

(** [add acc buf ~off ~len] extends the running sum [acc] with the [len]
    bytes of [buf] at [off]. Raises [Invalid_argument] if the range lies
    outside [buf]. *)
val add : int -> Bytestruct.t -> off:int -> len:int -> int

(** The checksum field value of a running sum. A correctly summed packet,
    its checksum field included, finishes to [0]. *)
val finish : int -> int

(** Checksum of a single buffer: [finish (add 0 buf ~off:0 ~len)]. *)
val ones_complement : Bytestruct.t -> int
