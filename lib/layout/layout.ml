type tech = { half_pitch : int; min_width : int; min_space : int }

let default_tech = { half_pitch = 20; min_width = 20; min_space = 20 }

let quadruple_min_s t = (2 * t.min_space) + (2 * t.min_width)
let pentuple_min_s t = (3 * t.min_space) + (5 * t.min_width / 2)
let min_s_for ~k t = if k >= 5 then pentuple_min_s t else quadruple_min_s t
let kclique_min_s t = (2 * t.min_space) + t.min_width

type t = {
  tech : tech;
  features : Mpl_geometry.Polygon.t array;
  name : string;
}

let make ?(name = "layout") tech features =
  { tech; features = Array.of_list features; name }

let feature_count t = Array.length t.features

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d features (hp=%d, w_m=%d, s_m=%d)" t.name
    (feature_count t) t.tech.half_pitch t.tech.min_width t.tech.min_space
