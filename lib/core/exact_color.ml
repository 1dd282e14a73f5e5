let solve ?budget ~k ~alpha g =
  let inst = Bnb.instance_of_graph ~alpha g in
  Bnb.solve ?budget ~k inst
