type histogram = {
  buckets : int array;  (* buckets.(i): samples with 2^i <= ns < 2^(i+1) *)
  mutable count : int;
  mutable sum_ns : int64;
  mutable max_ns : int64;
  (* the first [sample_cap] raw observations, kept so small histograms
     answer percentile queries exactly; once [count] outgrows the
     buffer (or a merge makes it non-exhaustive) queries fall back to
     the factor-2 bucket estimate *)
  mutable samples : int64 array;
  mutable n_samples : int;
}

let buckets = 64
let sample_cap = 512

let make_histogram () =
  {
    buckets = Array.make buckets 0;
    count = 0;
    sum_ns = 0L;
    max_ns = 0L;
    samples = [||];
    n_samples = 0;
  }

(* floor(log2 ns), with everything <= 1ns in bucket 0 — an O(1) update
   (the loop runs at most 63 times and in practice ~a dozen). *)
let bucket_of ns =
  if Int64.compare ns 1L <= 0 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while Int64.compare !v 1L > 0 do
      incr b;
      v := Int64.shift_right_logical !v 1
    done;
    min !b (buckets - 1)
  end

let observe h ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  h.buckets.(bucket_of ns) <- h.buckets.(bucket_of ns) + 1;
  (* record the raw sample only while the buffer is still exhaustive —
     [n_samples = count] — so exactness is a simple equality check *)
  if h.n_samples = h.count && h.n_samples < sample_cap then begin
    if h.n_samples = Array.length h.samples then begin
      let cap = max 16 (min sample_cap (2 * Array.length h.samples)) in
      let bigger = Array.make cap 0L in
      Array.blit h.samples 0 bigger 0 h.n_samples;
      h.samples <- bigger
    end;
    h.samples.(h.n_samples) <- ns;
    h.n_samples <- h.n_samples + 1
  end;
  h.count <- h.count + 1;
  h.sum_ns <- Int64.add h.sum_ns ns;
  if Int64.compare ns h.max_ns > 0 then h.max_ns <- ns

let hist_count h = h.count
let hist_max_ns h = h.max_ns

let hist_mean_ns h =
  if h.count = 0 then 0.0 else Int64.to_float h.sum_ns /. float_of_int h.count

(* Upper bound of the bucket holding the p-quantile sample — a
   conservative estimate with factor-2 resolution, which is all a
   log2-bucketed histogram can promise. *)
let rank_of h p =
  let rank = int_of_float (ceil (p *. float_of_int h.count)) in
  max 1 (min rank h.count)

let hist_percentile_ns h p =
  if h.count = 0 then 0.0
  else begin
    let rank = rank_of h p in
    let cum = ref 0 and result = ref 0.0 and found = ref false in
    Array.iteri
      (fun i n ->
        if not !found then begin
          cum := !cum + n;
          if !cum >= rank then begin
            result := ldexp 1.0 (i + 1) -. 1.0;
            found := true
          end
        end)
      h.buckets;
    !result
  end

(* Exact nearest-rank percentile while the raw-sample buffer is still
   exhaustive (count <= sample_cap and never merged past it); the
   log2-bucket upper bound otherwise. *)
let percentile h p =
  if h.count = 0 then 0.0
  else if h.n_samples = h.count then begin
    let sorted = Array.sub h.samples 0 h.n_samples in
    Array.sort Int64.compare sorted;
    Int64.to_float sorted.(rank_of h p - 1)
  end
  else hist_percentile_ns h p

type t = {
  mutable decisions : int;
  mutable granted : int;
  mutable denied : int;
  mutable stage_failures : int;
  mutable faults : int;
  mutable retries : int;
  mutable gave_up : int;
  rbac : histogram;
  spatial : histogram;
  temporal : histogram;
}

let create () =
  {
    decisions = 0;
    granted = 0;
    denied = 0;
    stage_failures = 0;
    faults = 0;
    retries = 0;
    gave_up = 0;
    rbac = make_histogram ();
    spatial = make_histogram ();
    temporal = make_histogram ();
  }

let histogram = make_histogram

let stage_histogram t = function
  | Trace.Rbac -> t.rbac
  | Trace.Spatial -> t.spatial
  | Trace.Temporal -> t.temporal

let decisions t = t.decisions
let granted t = t.granted
let denied t = t.denied
let stage_failures t = t.stage_failures
let faults t = t.faults
let retries t = t.retries
let gave_up t = t.gave_up
let stage_count t stage = (stage_histogram t stage).count

let sink t =
  Sink.make ~name:"stats" (function
    | Trace.Stage_end { stage; ok; elapsed_ns; _ } ->
        observe (stage_histogram t stage) elapsed_ns;
        if not ok then t.stage_failures <- t.stage_failures + 1
    | Trace.Decision { verdict; _ } ->
        t.decisions <- t.decisions + 1;
        if Verdict.is_granted verdict then t.granted <- t.granted + 1
        else t.denied <- t.denied + 1
    | Trace.Fault_injected _ -> t.faults <- t.faults + 1
    | Trace.Retry_scheduled _ -> t.retries <- t.retries + 1
    | Trace.Gave_up _ -> t.gave_up <- t.gave_up + 1
    | _ -> ())

let of_trace events =
  let t = create () in
  let s = sink t in
  List.iter (Sink.handle s) events;
  t

let add_histogram acc h =
  Array.iteri (fun i n -> acc.buckets.(i) <- acc.buckets.(i) + n) h.buckets;
  (* raw samples stay exhaustive only when both sides were and the
     union still fits the cap; otherwise later queries use buckets *)
  if acc.n_samples = acc.count && h.n_samples = h.count
     && acc.n_samples + h.n_samples <= sample_cap
  then begin
    let merged = Array.make (max 16 (acc.n_samples + h.n_samples)) 0L in
    Array.blit acc.samples 0 merged 0 acc.n_samples;
    Array.blit h.samples 0 merged acc.n_samples h.n_samples;
    acc.samples <- merged;
    acc.n_samples <- acc.n_samples + h.n_samples
  end;
  acc.count <- acc.count + h.count;
  acc.sum_ns <- Int64.add acc.sum_ns h.sum_ns;
  if Int64.compare h.max_ns acc.max_ns > 0 then acc.max_ns <- h.max_ns

let add acc t =
  acc.decisions <- acc.decisions + t.decisions;
  acc.granted <- acc.granted + t.granted;
  acc.denied <- acc.denied + t.denied;
  acc.stage_failures <- acc.stage_failures + t.stage_failures;
  acc.faults <- acc.faults + t.faults;
  acc.retries <- acc.retries + t.retries;
  acc.gave_up <- acc.gave_up + t.gave_up;
  add_histogram acc.rbac t.rbac;
  add_histogram acc.spatial t.spatial;
  add_histogram acc.temporal t.temporal

let pp_stage ppf (name, h) =
  if h.count = 0 then Format.fprintf ppf "%-8s (no samples)" name
  else
    Format.fprintf ppf
      "%-8s n=%-7d mean %8.1fns  p50 %8.0fns  p90 %8.0fns  p99 %8.0fns  max \
       %Ldns"
      name h.count (hist_mean_ns h)
      (percentile h 0.50)
      (percentile h 0.90)
      (percentile h 0.99)
      h.max_ns

let pp ppf t =
  Format.fprintf ppf
    "@[<v>decisions: %d (%d granted, %d denied); stage failures: %d@,\
     faults: %d injected, %d retries, %d gave up@,\
     %a@,%a@,%a@]"
    t.decisions t.granted t.denied t.stage_failures t.faults t.retries
    t.gave_up pp_stage ("rbac", t.rbac) pp_stage ("spatial", t.spatial)
    pp_stage ("temporal", t.temporal)
