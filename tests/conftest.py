import pytest
import yaml

from leaky_cavity.scenario import YAML_LOADER


@pytest.fixture(autouse=True)
def yaml_loaders_agree(monkeypatch):
    """Each YAML text the package parses with libyaml reads the same in pure-Python PyYAML.

    This covers every scenario a test writes and loads.  Documents are compared
    by repr, so a type counts and nan equals nan; a text that libyaml refuses
    must be refused by both.
    """
    if YAML_LOADER is yaml.SafeLoader:  # PyYAML without libyaml: one parser only
        return
    load = yaml.load

    def both(stream, Loader):
        if Loader is not YAML_LOADER:
            return load(stream, Loader)
        text = stream if isinstance(stream, str) else stream.read()
        try:
            doc = load(text, Loader)
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                load(text, yaml.SafeLoader)
            raise
        assert repr(load(text, yaml.SafeLoader)) == repr(doc)
        return doc

    monkeypatch.setattr(yaml, "load", both)
