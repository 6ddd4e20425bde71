let percentiles ps xs =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if List.exists (fun p -> p < 0.0 || p > 100.0) ps then
    invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let at p =
    if n = 1 then arr.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
    end
  in
  List.map at ps

let percentile p xs = List.hd (percentiles [ p ] xs)
