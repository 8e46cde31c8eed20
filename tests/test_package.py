import types

import latentqubo as lq
from latentqubo import bvae, dataset, fm, images, objectives, pipeline, qubo, samplers


def test_public_names_are_the_modules_exports():
    exported = {
        name for name, value in vars(lq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (bvae, dataset, fm, images, objectives, pipeline, qubo, samplers)
    assert exported == {name for module in modules for name in module.__all__}
